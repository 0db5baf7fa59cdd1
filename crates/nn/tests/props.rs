//! Property-based suite for the LSTM kernels, built on
//! `sintel_common::check`.
//!
//! Every forward path (`Lstm::forward`, `Lstm::forward_flat`,
//! `Lstm::forward_tape`) must be bitwise-identical to the pre-fusion
//! scalar reference: strided gate loops with per-row summation order
//! bias → input terms → recurrent terms (DESIGN.md §4j). The training
//! tape (`forward_tape` / `backward_tape`) must reproduce the
//! specification kernels (`forward` / `backward`) bit for bit — hidden
//! states, input gradients and weight gradients — and each model's
//! `fit` must reproduce a specification training loop written here
//! against those kernels. References are replicated from the public
//! weight layout, and seeded mutation tests prove the harness has the
//! sensitivity to catch a reordered reduction.

use sintel_common::check::{forall, shrinks, Config};
use sintel_common::SintelRng;
use sintel_linalg::Matrix;
use sintel_nn::activation::sigmoid;
use sintel_nn::{
    Activation, Dense, HiddenGrad, Lstm, LstmAutoencoder, LstmRegressor, LstmTape, Seq, TadGan,
    TrainConfig,
};

/// A random LSTM plus a random input sequence (possibly empty).
fn random_case(rng: &mut SintelRng) -> (Lstm, Vec<Vec<f64>>) {
    let input_dim = 1 + rng.index(3);
    let hidden = 1 + rng.index(9);
    let t_len = rng.index(7);
    let lstm = Lstm::new(input_dim, hidden, rng);
    let xs = (0..t_len)
        .map(|_| (0..input_dim).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
        .collect();
    (lstm, xs)
}

/// The pre-fusion scalar forward pass: indexed gate rows, strided
/// activation loops, per-step buffer allocation. This is the
/// *specification* of the LSTM step's reduction order.
fn reference_hidden_states(lstm: &Lstm, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let h_dim = lstm.hidden_size();
    let input_dim = lstm.input_size();
    let cols = input_dim + h_dim + 1;
    let w = lstm.weights();
    let mut h_prev = vec![0.0; h_dim];
    let mut c_prev = vec![0.0; h_dim];
    let mut hs = Vec::with_capacity(xs.len());
    for x in xs {
        let mut gates = vec![0.0; 4 * h_dim];
        for (r, gate) in gates.iter_mut().enumerate() {
            let row = &w[r * cols..(r + 1) * cols];
            let mut z = row[cols - 1]; // bias
            for (i, &xi) in x.iter().enumerate() {
                z += row[i] * xi;
            }
            for (j, &hj) in h_prev.iter().enumerate() {
                z += row[input_dim + j] * hj;
            }
            *gate = z;
        }
        let mut c = vec![0.0; h_dim];
        let mut h = vec![0.0; h_dim];
        for k in 0..h_dim {
            let i_g = sigmoid(gates[k]);
            let f_g = sigmoid(gates[h_dim + k]);
            let g_g = gates[2 * h_dim + k].tanh();
            let o_g = sigmoid(gates[3 * h_dim + k]);
            c[k] = f_g * c_prev[k] + i_g * g_g;
            h[k] = o_g * c[k].tanh();
        }
        hs.push(h.clone());
        h_prev = h;
        c_prev = c;
    }
    hs
}

/// MUTANT reference: recurrent terms accumulated *before* the input
/// terms — the same sum over the reals, a different floating-point
/// reduction order.
fn mutant_reordered_hidden_states(lstm: &Lstm, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let h_dim = lstm.hidden_size();
    let input_dim = lstm.input_size();
    let cols = input_dim + h_dim + 1;
    let w = lstm.weights();
    let mut h_prev = vec![0.0; h_dim];
    let mut c_prev = vec![0.0; h_dim];
    let mut hs = Vec::with_capacity(xs.len());
    for x in xs {
        let mut gates = vec![0.0; 4 * h_dim];
        for (r, gate) in gates.iter_mut().enumerate() {
            let row = &w[r * cols..(r + 1) * cols];
            let mut z = row[cols - 1];
            // BUG: h terms summed before x terms.
            for (j, &hj) in h_prev.iter().enumerate() {
                z += row[input_dim + j] * hj;
            }
            for (i, &xi) in x.iter().enumerate() {
                z += row[i] * xi;
            }
            *gate = z;
        }
        let mut c = vec![0.0; h_dim];
        let mut h = vec![0.0; h_dim];
        for k in 0..h_dim {
            let i_g = sigmoid(gates[k]);
            let f_g = sigmoid(gates[h_dim + k]);
            let g_g = gates[2 * h_dim + k].tanh();
            let o_g = sigmoid(gates[3 * h_dim + k]);
            c[k] = f_g * c_prev[k] + i_g * g_g;
            h[k] = o_g * c[k].tanh();
        }
        hs.push(h.clone());
        h_prev = h;
        c_prev = c;
    }
    hs
}

fn bitwise_eq(
    name: &str,
    want: &[Vec<f64>],
    got: &[Vec<f64>],
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{name}: {} steps vs {}", want.len(), got.len()));
    }
    for (t, (w, g)) in want.iter().zip(got).enumerate() {
        for (k, (a, b)) in w.iter().zip(g).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{name}: h[{t}][{k}] differs: {a:?} vs {b:?}"));
            }
        }
    }
    Ok(())
}

/// The fused cache-path forward is bitwise-identical to the strided
/// scalar reference at every random shape and sequence length.
#[test]
fn fused_forward_matches_scalar_reference_bitwise() {
    forall(
        "Lstm::forward == pre-fusion scalar reference, bitwise",
        &Config::default(),
        random_case,
        shrinks::none,
        |(lstm, xs)| {
            let reference = reference_hidden_states(lstm, xs);
            let cache = lstm.forward(xs);
            bitwise_eq("fused forward", &reference, cache.hidden_states())
        },
    );
}

/// The flat inference path (reused scratch buffers, no per-step
/// allocation) is bitwise-identical to the cache path.
#[test]
fn forward_flat_matches_cache_forward_bitwise() {
    forall(
        "Lstm::forward_flat == Lstm::forward, bitwise",
        &Config::default(),
        random_case,
        shrinks::none,
        |(lstm, xs)| {
            let cache = lstm.forward(xs);
            let flat_xs: Vec<f64> = xs.iter().flatten().copied().collect();
            let mut state = lstm.state();
            let mut hs = Vec::new();
            // Run twice through the same scratch: the second pass must
            // be unaffected by leftover state (reset contract).
            for _ in 0..2 {
                lstm.forward_flat(&flat_xs, &mut state, Some(&mut hs));
            }
            let h_dim = lstm.hidden_size();
            let got: Vec<Vec<f64>> = hs.chunks(h_dim).map(<[f64]>::to_vec).collect();
            bitwise_eq("forward_flat", cache.hidden_states(), &got)?;
            if let Some(last) = cache.hidden_states().last() {
                bitwise_eq("final state", &[last.clone()], &[state.hidden().to_vec()])?;
            }
            Ok(())
        },
    );
}

/// Extract `prefix <u64>` from a forall report.
fn parse_seed(report: &str, prefix: &str) -> u64 {
    let at = report.find(prefix).unwrap_or_else(|| panic!("report lacks `{prefix}`: {report}"));
    report[at + prefix.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("unparseable seed after `{prefix}`: {report}"))
}

/// Sensitivity proof: a reordered-reduction mutation of the LSTM step
/// is caught by the bitwise property, and the reported case seed
/// replays the exact failing input.
#[test]
fn seeded_lstm_mutation_is_caught_and_replayable() {
    // Guarantee a non-trivial recurrent step so the reordered sum has
    // room to differ (t_len >= 2, input_dim >= 2).
    let gen = |rng: &mut SintelRng| {
        let input_dim = 2 + rng.index(2);
        let hidden = 2 + rng.index(8);
        let lstm = Lstm::new(input_dim, hidden, rng);
        let xs: Vec<Vec<f64>> = (0..2 + rng.index(5))
            .map(|_| (0..input_dim).map(|_| rng.uniform_range(-2.0, 2.0)).collect())
            .collect();
        (lstm, xs)
    };
    let prop = |(lstm, xs): &(Lstm, Vec<Vec<f64>>)| {
        let cache = lstm.forward(xs);
        bitwise_eq(
            "MUTANT reordered gate reduction",
            cache.hidden_states(),
            &mutant_reordered_hidden_states(lstm, xs),
        )
    };
    let result = std::panic::catch_unwind(|| {
        forall("MUTANT reordered gate reduction", &Config::default(), gen, shrinks::none, prop)
    });
    let payload = result.expect_err("the mutated step must be caught by the property");
    let report = sintel_common::panic_message(payload.as_ref());
    assert!(
        report.contains(sintel_common::check::CHECK_SEED_ENV),
        "report must tell the user how to replay the run: {report}"
    );
    assert_eq!(parse_seed(&report, "root seed "), Config::default().seed);
    let case = parse_seed(&report, "case seed ");
    let (_, replayed) = sintel_common::check::replay(case, gen, prop);
    assert!(replayed.is_err(), "replaying case seed {case} must fail again");
}

// ---------------------------------------------------------------------
// Training tape vs specification kernels
// ---------------------------------------------------------------------

/// One differential case for the training tape: a layer, two samples
/// trained back to back (so the second accumulates onto non-zero
/// weight gradients), and how the loss gradient enters.
#[derive(Debug, Clone)]
struct TapeCase {
    lstm: Lstm,
    /// Per sample: the input steps (identical rows when `repeat`).
    samples: Vec<Vec<Vec<f64>>>,
    /// Per sample: `∂L/∂h_t`, zero except at the last step unless `every`.
    dhs: Vec<Vec<Vec<f64>>>,
    /// Gradient at every step (autoencoder decoder) or only at the last
    /// (regressor, encoders).
    every: bool,
    /// One input row repeated at every step (RepeatVector decoder).
    repeat: bool,
}

fn random_tape_case(rng: &mut SintelRng) -> TapeCase {
    let input_dim = 1 + rng.index(4);
    let hidden = 1 + rng.index(24);
    let t_len = 1 + rng.index(60);
    let every = rng.chance(0.5);
    let repeat = rng.chance(0.25);
    let lstm = Lstm::new(input_dim, hidden, rng);
    let mut samples = Vec::new();
    let mut dhs = Vec::new();
    for _ in 0..2 {
        let row: Vec<f64> = (0..input_dim).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let xs: Vec<Vec<f64>> = (0..t_len)
            .map(|_| {
                if repeat {
                    row.clone()
                } else {
                    (0..input_dim).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
                }
            })
            .collect();
        let dh: Vec<Vec<f64>> = (0..t_len)
            .map(|t| {
                if every || t + 1 == t_len {
                    (0..hidden).map(|_| rng.uniform_range(-1.0, 1.0)).collect()
                } else {
                    vec![0.0; hidden]
                }
            })
            .collect();
        samples.push(xs);
        dhs.push(dh);
    }
    TapeCase { lstm, samples, dhs, every, repeat }
}

fn bits_eq(name: &str, want: &[f64], got: &[f64]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{name}: {} values vs {}", want.len(), got.len()));
    }
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!("{name}[{i}] differs: {a:?} vs {b:?}"));
        }
    }
    Ok(())
}

/// What one training pass over a case produced: per sample the hidden
/// states and input gradients (flat `T x ·`), then the final weight
/// gradients.
struct Trained {
    hs: Vec<Vec<f64>>,
    dxs: Vec<Vec<f64>>,
    gw: Vec<f64>,
}

/// The specification path: `Lstm::forward` + `Lstm::backward`.
fn train_spec(case: &TapeCase) -> Trained {
    let mut lstm = case.lstm.clone();
    let (mut hs, mut dxs) = (Vec::new(), Vec::new());
    for (xs, dh) in case.samples.iter().zip(&case.dhs) {
        let cache = lstm.forward(xs);
        hs.push(cache.hidden_states().concat());
        dxs.push(lstm.backward(&cache, dh).concat());
    }
    Trained { hs, dxs, gw: lstm.grads().to_vec() }
}

/// The training tape, one tape reused across both samples.
fn train_tape(case: &TapeCase) -> Trained {
    let mut lstm = case.lstm.clone();
    let mut tape = LstmTape::new();
    let (mut hs, mut dxs) = (Vec::new(), Vec::new());
    for (xs, dh) in case.samples.iter().zip(&case.dhs) {
        let flat = xs.concat();
        let seq = match xs.first() {
            Some(row) if case.repeat => Seq::repeat(row, xs.len()),
            _ => Seq::flat(&flat, lstm.input_size()),
        };
        lstm.forward_tape(seq, &mut tape);
        hs.push(tape.hidden_states().to_vec());
        let dh_flat = dh.concat();
        let grad = if case.every {
            HiddenGrad::Every(&dh_flat)
        } else {
            HiddenGrad::Last(dh.last().map_or(&[][..], Vec::as_slice))
        };
        let mut dx = vec![f64::NAN; flat.len()];
        lstm.backward_tape(seq, &mut tape, grad, Some(&mut dx));
        dxs.push(dx);
    }
    Trained { hs, dxs, gw: lstm.grads().to_vec() }
}

fn trained_eq(want: &Trained, got: &Trained) -> Result<(), String> {
    for (s, (w, g)) in want.hs.iter().zip(&got.hs).enumerate() {
        bits_eq(&format!("sample {s} h"), w, g)?;
    }
    for (s, (w, g)) in want.dxs.iter().zip(&got.dxs).enumerate() {
        bits_eq(&format!("sample {s} dx"), w, g)?;
    }
    bits_eq("gw", &want.gw, &got.gw)
}

/// The tape's hidden states, input gradients and accumulated weight
/// gradients are bitwise-equal to the specification kernels across
/// input dims 1–4, hidden sizes 1–24 (remainder rows/columns of every
/// register block), sequence lengths 1–60, both gradient patterns and
/// repeated inputs.
#[test]
fn tape_matches_spec_kernels_bitwise() {
    forall(
        "Lstm::{forward,backward}_tape == Lstm::{forward,backward}, bitwise",
        &Config::default(),
        random_tape_case,
        shrinks::none,
        |case| trained_eq(&train_spec(case), &train_tape(case)),
    );
}

/// Non-finite values pin the zero-gradient skip, which is semantic:
/// - an infinite input-gate weight saturates that gate, so its
///   pre-activation gradient is exactly zero at every step, and only
///   skipping the row keeps `0 · inf = NaN` out of the input gradients;
/// - an infinite input at one step saturates every gate there, so every
///   gradient of that step is zero, and only skipping keeps `0 · inf`
///   out of the weight gradients.
///
/// The tape must skip exactly where the specification does.
#[test]
fn non_finite_values_keep_the_zero_gradient_skip() {
    let mut rng = SintelRng::seed_from_u64(0x1AF);
    let (input_dim, hidden, t_len) = (2, 5, 9);
    let sample = |rng: &mut SintelRng| -> Vec<Vec<f64>> {
        (0..t_len).map(|_| (0..input_dim).map(|_| rng.uniform_range(0.5, 1.5)).collect()).collect()
    };
    let dh = |rng: &mut SintelRng| -> Vec<Vec<f64>> {
        (0..t_len).map(|_| (0..hidden).map(|_| rng.uniform_range(-1.0, 1.0)).collect()).collect()
    };

    let mut lstm = Lstm::new(input_dim, hidden, &mut rng);
    // Row 0 is lane 0's input gate; column 0 its first input weight.
    lstm.weights_mut()[0] = f64::INFINITY;
    let inf_weight = TapeCase {
        lstm,
        samples: vec![sample(&mut rng), sample(&mut rng)],
        dhs: vec![dh(&mut rng), dh(&mut rng)],
        every: true,
        repeat: false,
    };
    let spec = train_spec(&inf_weight);
    assert!(
        spec.dxs.iter().flatten().all(|v| v.is_finite()),
        "the infinite weight must exercise the skip: the specification's input gradients stay finite"
    );
    if let Err(e) = trained_eq(&spec, &train_tape(&inf_weight)) {
        panic!("tape diverges from the specification on an infinite weight: {e}");
    }

    let mut xs = sample(&mut rng);
    xs[t_len / 2][1] = f64::INFINITY;
    let inf_input = TapeCase {
        lstm: Lstm::new(input_dim, hidden, &mut rng),
        samples: vec![sample(&mut rng), xs],
        dhs: vec![dh(&mut rng), dh(&mut rng)],
        every: true,
        repeat: false,
    };
    let spec = train_spec(&inf_input);
    assert!(
        spec.gw.iter().all(|v| v.is_finite()),
        "the infinite input must exercise the skip: the specification's weight gradients stay finite"
    );
    if let Err(e) = trained_eq(&spec, &train_tape(&inf_input)) {
        panic!("tape diverges from the specification on an infinite input: {e}");
    }
}

/// Test-local BPTT reference with a selectable time order for the
/// weight-gradient sums — `descending` is the specification order, the
/// ascending variant is a mutant. Returns the weight gradients of one
/// sample accumulated onto `gw`.
fn reference_gw(lstm: &Lstm, xs: &[Vec<f64>], dh: &[Vec<f64>], gw: &mut [f64], descending: bool) {
    let h_dim = lstm.hidden_size();
    let n_in = lstm.input_size();
    let cols = n_in + h_dim + 1;
    let w = lstm.weights();
    // Forward, keeping activated gates, cell and hidden states.
    let (mut gates, mut cs, mut hs) = (Vec::new(), vec![vec![0.0; h_dim]], vec![vec![0.0; h_dim]]);
    for (t, x) in xs.iter().enumerate() {
        let mut z = vec![0.0; 4 * h_dim];
        for (r, zr) in z.iter_mut().enumerate() {
            let row = &w[r * cols..(r + 1) * cols];
            let mut acc = row[cols - 1];
            for (i, &xi) in x.iter().enumerate() {
                acc += row[i] * xi;
            }
            for (j, &hj) in hs[t].iter().enumerate() {
                acc += row[n_in + j] * hj;
            }
            *zr = acc;
        }
        let (mut c, mut h) = (vec![0.0; h_dim], vec![0.0; h_dim]);
        for k in 0..h_dim {
            z[k] = sigmoid(z[k]);
            z[h_dim + k] = sigmoid(z[h_dim + k]);
            z[2 * h_dim + k] = z[2 * h_dim + k].tanh();
            z[3 * h_dim + k] = sigmoid(z[3 * h_dim + k]);
            c[k] = z[h_dim + k] * cs[t][k] + z[k] * z[2 * h_dim + k];
            h[k] = z[3 * h_dim + k] * c[k].tanh();
        }
        gates.push(z);
        cs.push(c);
        hs.push(h);
    }
    // Backward: per-step pre-activation gradients.
    let t_len = xs.len();
    let mut dzs = vec![Vec::new(); t_len];
    let (mut dh_next, mut dc_next) = (vec![0.0; h_dim], vec![0.0; h_dim]);
    for t in (0..t_len).rev() {
        let g = &gates[t];
        let mut dz = vec![0.0; 4 * h_dim];
        let mut dc_prev = vec![0.0; h_dim];
        for k in 0..h_dim {
            let (i_g, f_g, g_g, o_g) = (g[k], g[h_dim + k], g[2 * h_dim + k], g[3 * h_dim + k]);
            let tanh_c = cs[t + 1][k].tanh();
            let dht = dh[t][k] + dh_next[k];
            let dc = dht * o_g * (1.0 - tanh_c * tanh_c) + dc_next[k];
            dz[k] = dc * g_g * i_g * (1.0 - i_g);
            dz[h_dim + k] = dc * cs[t][k] * f_g * (1.0 - f_g);
            dz[2 * h_dim + k] = dc * i_g * (1.0 - g_g * g_g);
            dz[3 * h_dim + k] = dht * tanh_c * o_g * (1.0 - o_g);
            dc_prev[k] = dc * f_g;
        }
        let mut dh_prev = vec![0.0; h_dim];
        for (r, &d) in dz.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            for (j, dhp) in dh_prev.iter_mut().enumerate() {
                *dhp += d * w[r * cols + n_in + j];
            }
        }
        dzs[t] = dz;
        dh_next = dh_prev;
        dc_next = dc_prev;
    }
    // Weight gradients, in the chosen time order.
    let order: Vec<usize> =
        if descending { (0..t_len).rev().collect() } else { (0..t_len).collect() };
    for t in order {
        for (r, &d) in dzs[t].iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            let g = &mut gw[r * cols..(r + 1) * cols];
            for (i, &xi) in xs[t].iter().enumerate() {
                g[i] += d * xi;
            }
            if t > 0 {
                for (j, &hj) in hs[t].iter().enumerate() {
                    g[n_in + j] += d * hj;
                }
            }
            g[cols - 1] += d;
        }
    }
}

fn reference_train_gw(case: &TapeCase, descending: bool) -> Vec<f64> {
    let mut gw = vec![0.0; case.lstm.param_count()];
    for (xs, dh) in case.samples.iter().zip(&case.dhs) {
        reference_gw(&case.lstm, xs, dh, &mut gw, descending);
    }
    gw
}

/// The test-local reference agrees with the tape, so the mutant below
/// differs from it only by its time order.
#[test]
fn reference_weight_gradients_match_tape_bitwise() {
    forall(
        "reference BPTT weight gradients == tape, bitwise",
        &Config::default().cases(48),
        random_tape_case,
        shrinks::none,
        |case| bits_eq("gw", &reference_train_gw(case, true), &train_tape(case).gw),
    );
}

/// Sensitivity proof for the deferred weight-gradient tiles: a mutant
/// that accumulates `gw` over time *ascending* (the same sum over the
/// reals) is caught, and the reported case seed replays the failure.
#[test]
fn seeded_gw_order_mutation_is_caught_and_replayable() {
    // At least three steps so the reordered sum has room to differ.
    let gen = |rng: &mut SintelRng| {
        let mut case = random_tape_case(rng);
        while case.samples[0].len() < 3 {
            case = random_tape_case(rng);
        }
        case
    };
    let prop = |case: &TapeCase| {
        bits_eq("MUTANT ascending gw", &train_tape(case).gw, &reference_train_gw(case, false))
    };
    let result = std::panic::catch_unwind(|| {
        forall("MUTANT ascending gw", &Config::default().cases(48), gen, shrinks::none, prop)
    });
    let payload = result.expect_err("the ascending-time mutant must be caught by the property");
    let report = sintel_common::panic_message(payload.as_ref());
    assert!(
        report.contains(sintel_common::check::CHECK_SEED_ENV),
        "report must tell the user how to replay the run: {report}"
    );
    let case = parse_seed(&report, "case seed ");
    let (_, replayed) = sintel_common::check::replay(case, gen, prop);
    assert!(replayed.is_err(), "replaying case seed {case} must fail again");
}

// ---------------------------------------------------------------------
// Model training loops vs specification loops
// ---------------------------------------------------------------------

/// A small random training problem: shapes, data and a configuration
/// whose batch size usually leaves a remainder chunk.
#[derive(Debug, Clone)]
struct FitCase {
    window: usize,
    channels: usize,
    hidden: usize,
    seed: u64,
    windows: Matrix,
    targets: Vec<f64>,
    cfg: TrainConfig,
}

fn random_fit_case(rng: &mut SintelRng) -> FitCase {
    let window = 1 + rng.index(8);
    let channels = 1 + rng.index(3);
    let hidden = 1 + rng.index(6);
    let n = 2 + rng.index(11);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..window * channels).map(|_| rng.uniform_range(-1.5, 1.5)).collect())
        .collect();
    let targets = (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
    let cfg = TrainConfig {
        epochs: 1 + rng.index(2),
        batch_size: 1 + rng.index(5),
        learning_rate: 0.01,
        seed: rng.next_u64(),
    };
    FitCase {
        window,
        channels,
        hidden,
        seed: rng.next_u64(),
        windows: Matrix::from_rows(&rows),
        targets,
        cfg,
    }
}

fn steps_of(window: &[f64], channels: usize) -> Vec<Vec<f64>> {
    window.chunks(channels).map(<[f64]>::to_vec).collect()
}

fn params_eq(want: &[&[f64]], got: &[&[f64]]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} parameter buffers vs {}", want.len(), got.len()));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        bits_eq(&format!("param buffer {i}"), w, g)?;
    }
    Ok(())
}

/// [`Dense::backward_into`] into a fresh row: the specification loops
/// allocate freely.
fn dense_backward(layer: &mut Dense, x: &[f64], y: &[f64], dy: &[f64]) -> Vec<f64> {
    let mut dx = vec![0.0; layer.in_dim()];
    layer.backward_into(x, y, dy, &mut dx);
    dx
}

/// Specification `LstmRegressor::fit`: the per-window cache loop.
fn spec_regressor(case: &FitCase) -> (Vec<f64>, Vec<Vec<f64>>) {
    let FitCase { channels, hidden, .. } = *case;
    let mut rng = SintelRng::seed_from_u64(case.seed);
    let mut l1 = Lstm::new(channels, hidden, &mut rng);
    let mut l2 = Lstm::new(hidden, hidden, &mut rng);
    let mut head = Dense::new(hidden, 1, Activation::Linear, &mut rng);
    let cfg = case.cfg;
    let mut rng = SintelRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..case.windows.rows()).collect();
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(cfg.batch_size) {
            for &idx in chunk {
                let xs = steps_of(case.windows.row(idx), channels);
                let c1 = l1.forward(&xs);
                let c2 = l2.forward(c1.hidden_states());
                let y = head.forward(c2.last_hidden());
                let err = y[0] - case.targets[idx];
                epoch_loss += err * err;
                let dlast = dense_backward(&mut head, c2.last_hidden(), &y, &[2.0 * err]);
                let mut dh2 = vec![vec![0.0; hidden]; xs.len()];
                dh2[xs.len() - 1] = dlast;
                let dh1 = l2.backward(&c2, &dh2);
                l1.backward(&c1, &dh1);
            }
            l1.step(cfg.learning_rate, chunk.len());
            l2.step(cfg.learning_rate, chunk.len());
            head.step(cfg.learning_rate, chunk.len());
        }
        losses.push(epoch_loss / case.windows.rows() as f64);
    }
    let [hw, hb] = head.params();
    (losses, vec![l1.weights().to_vec(), l2.weights().to_vec(), hw.to_vec(), hb.to_vec()])
}

/// Specification `LstmAutoencoder::fit`.
fn spec_autoencoder(case: &FitCase) -> (Vec<f64>, Vec<Vec<f64>>) {
    let FitCase { window, channels, hidden, .. } = *case;
    let mut rng = SintelRng::seed_from_u64(case.seed);
    let mut enc = Lstm::new(channels, hidden, &mut rng);
    let mut dec = Lstm::new(hidden, hidden, &mut rng);
    let mut head = Dense::new(hidden, channels, Activation::Linear, &mut rng);
    let cfg = case.cfg;
    let mut rng = SintelRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..case.windows.rows()).collect();
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(cfg.batch_size) {
            for &idx in chunk {
                let xs = steps_of(case.windows.row(idx), channels);
                let t_len = xs.len();
                let enc_cache = enc.forward(&xs);
                let code = enc_cache.last_hidden().to_vec();
                let dec_cache = dec.forward(&vec![code; t_len]);
                let mut dh_dec = vec![vec![0.0; hidden]; t_len];
                for t in 0..t_len {
                    let h = &dec_cache.hidden_states()[t];
                    let y = head.forward(h);
                    let mut dy = Vec::new();
                    for c in 0..channels {
                        let err = y[c] - xs[t][c];
                        epoch_loss += err * err;
                        dy.push(2.0 * err / t_len as f64);
                    }
                    dh_dec[t] = dense_backward(&mut head, h, &y, &dy);
                }
                let dxs_dec = dec.backward(&dec_cache, &dh_dec);
                let mut dcode = vec![0.0; hidden];
                for dx in &dxs_dec {
                    for (k, v) in dx.iter().enumerate() {
                        dcode[k] += v;
                    }
                }
                let mut dh_enc = vec![vec![0.0; hidden]; t_len];
                dh_enc[t_len - 1] = dcode;
                enc.backward(&enc_cache, &dh_enc);
            }
            enc.step(cfg.learning_rate, chunk.len());
            dec.step(cfg.learning_rate, chunk.len());
            head.step(cfg.learning_rate, chunk.len());
        }
        losses.push(epoch_loss / (case.windows.rows() * window) as f64);
    }
    let [hw, hb] = head.params();
    (losses, vec![enc.weights().to_vec(), dec.weights().to_vec(), hw.to_vec(), hb.to_vec()])
}

/// The TadGAN constants, replicated from the model.
const N_CRITIC: usize = 3;
const CLIP: f64 = 0.1;
const RECON_WEIGHT: f64 = 10.0;

/// A specification critic: two dense layers.
struct SpecMlp {
    l1: Dense,
    l2: Dense,
}

impl SpecMlp {
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
    fn backward(&mut self, x: &[f64], h: &[f64], y: &[f64], dy: &[f64]) -> Vec<f64> {
        let dh = dense_backward(&mut self.l2, h, y, dy);
        dense_backward(&mut self.l1, x, h, &dh)
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
}

/// Specification `TadGan::fit`, with `latent` and the model seed.
fn spec_tadgan(case: &FitCase, latent: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let FitCase { window, channels, hidden, .. } = *case;
    let mut rng = SintelRng::seed_from_u64(case.seed);
    let mut enc_lstm = Lstm::new(channels, hidden, &mut rng);
    let mut enc_head = Dense::new(hidden, latent, Activation::Linear, &mut rng);
    let mut gen_lstm = Lstm::new(latent, hidden, &mut rng);
    let mut gen_head = Dense::new(hidden, channels, Activation::Linear, &mut rng);
    let mut critic_x = SpecMlp::new(window * channels, hidden, &mut rng);
    let mut critic_z = SpecMlp::new(latent, hidden, &mut rng);
    let decode = |gen_lstm: &Lstm, gen_head: &Dense, z: &[f64]| -> Vec<f64> {
        let cache = gen_lstm.forward(&vec![z.to_vec(); window]);
        cache.hidden_states().iter().flat_map(|h| gen_head.forward(h)).collect()
    };
    let cfg = case.cfg;
    let mut rng = SintelRng::seed_from_u64(cfg.seed ^ case.seed);
    let mut order: Vec<usize> = (0..case.windows.rows()).collect();
    let mut losses = Vec::new();
    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut epoch_recon = 0.0;
        for chunk in order.chunks(cfg.batch_size) {
            for _ in 0..N_CRITIC {
                for &idx in chunk {
                    let x = case.windows.row(idx);
                    let z_prior: Vec<f64> = (0..latent).map(|_| rng.normal(0.0, 1.0)).collect();
                    let (hx, yx) = critic_x.forward(x);
                    critic_x.backward(x, &hx, &yx, &[-1.0]);
                    let fake_x = decode(&gen_lstm, &gen_head, &z_prior);
                    let (hf, yf) = critic_x.forward(&fake_x);
                    critic_x.backward(&fake_x, &hf, &yf, &[1.0]);
                    let (hz, yz) = critic_z.forward(&z_prior);
                    critic_z.backward(&z_prior, &hz, &yz, &[-1.0]);
                    let enc_cache = enc_lstm.forward(&steps_of(x, channels));
                    let enc_z = enc_head.forward(enc_cache.last_hidden());
                    let (he, ye) = critic_z.forward(&enc_z);
                    critic_z.backward(&enc_z, &he, &ye, &[1.0]);
                }
                critic_x.step(cfg.learning_rate, chunk.len());
                critic_z.step(cfg.learning_rate, chunk.len());
                critic_x.clip_weights(CLIP);
                critic_z.clip_weights(CLIP);
            }
            for &idx in chunk {
                let x = case.windows.row(idx);
                // Reconstruction.
                let xs = steps_of(x, channels);
                let enc_cache = enc_lstm.forward(&xs);
                let z = enc_head.forward(enc_cache.last_hidden());
                let dec_cache = gen_lstm.forward(&vec![z.clone(); window]);
                let n = x.len() as f64;
                let mut recon = 0.0;
                let mut dh_dec = vec![vec![0.0; hidden]; window];
                for t in 0..window {
                    let h = &dec_cache.hidden_states()[t];
                    let y = gen_head.forward(h);
                    let mut dy = Vec::new();
                    for c in 0..channels {
                        let err = y[c] - xs[t][c];
                        recon += err * err;
                        dy.push(RECON_WEIGHT * 2.0 * err / n);
                    }
                    dh_dec[t] = dense_backward(&mut gen_head, h, &y, &dy);
                }
                let dxs_dec = gen_lstm.backward(&dec_cache, &dh_dec);
                let mut dz = vec![0.0; latent];
                for dx in &dxs_dec {
                    for (k, v) in dx.iter().enumerate() {
                        dz[k] += v;
                    }
                }
                let dh_last = dense_backward(&mut enc_head, enc_cache.last_hidden(), &z, &dz);
                let mut dh_enc = vec![vec![0.0; hidden]; window];
                dh_enc[window - 1] = dh_last;
                enc_lstm.backward(&enc_cache, &dh_enc);
                epoch_recon += recon / n;
                // Generator fools Cx.
                let z_prior: Vec<f64> = (0..latent).map(|_| rng.normal(0.0, 1.0)).collect();
                let dec_cache = gen_lstm.forward(&vec![z_prior.clone(); window]);
                let fake_x: Vec<f64> =
                    dec_cache.hidden_states().iter().flat_map(|h| gen_head.forward(h)).collect();
                let (hc, yc) = critic_x.forward(&fake_x);
                let dfake = critic_x.backward(&fake_x, &hc, &yc, &[-1.0]);
                critic_x.zero_grad();
                let mut dh_dec = vec![vec![0.0; hidden]; window];
                for t in 0..window {
                    let h = &dec_cache.hidden_states()[t];
                    let y = gen_head.forward(h);
                    let dy = &dfake[t * channels..(t + 1) * channels];
                    dh_dec[t] = dense_backward(&mut gen_head, h, &y, dy);
                }
                gen_lstm.backward(&dec_cache, &dh_dec);
                // Encoder fools Cz.
                let enc_cache = enc_lstm.forward(&xs);
                let z2 = enc_head.forward(enc_cache.last_hidden());
                let (hcz, ycz) = critic_z.forward(&z2);
                let dz2 = critic_z.backward(&z2, &hcz, &ycz, &[-1.0]);
                critic_z.zero_grad();
                let dh_last = dense_backward(&mut enc_head, enc_cache.last_hidden(), &z2, &dz2);
                let mut dh_enc = vec![vec![0.0; hidden]; window];
                dh_enc[window - 1] = dh_last;
                enc_lstm.backward(&enc_cache, &dh_enc);
            }
            enc_lstm.step(cfg.learning_rate, chunk.len());
            enc_head.step(cfg.learning_rate, chunk.len());
            gen_lstm.step(cfg.learning_rate, chunk.len());
            gen_head.step(cfg.learning_rate, chunk.len());
        }
        losses.push(epoch_recon / case.windows.rows() as f64);
    }
    let mut params = vec![enc_lstm.weights().to_vec()];
    params.extend(enc_head.params().map(<[f64]>::to_vec));
    params.push(gen_lstm.weights().to_vec());
    params.extend(gen_head.params().map(<[f64]>::to_vec));
    for mlp in [&critic_x, &critic_z] {
        params.extend(mlp.l1.params().map(<[f64]>::to_vec));
        params.extend(mlp.l2.params().map(<[f64]>::to_vec));
    }
    (losses, params)
}

fn fit_eq(
    name: &str,
    spec: (Vec<f64>, Vec<Vec<f64>>),
    losses: Vec<f64>,
    params: Vec<&[f64]>,
) -> Result<(), String> {
    bits_eq(&format!("{name} epoch losses"), &spec.0, &losses)?;
    let want: Vec<&[f64]> = spec.1.iter().map(Vec::as_slice).collect();
    params_eq(&want, &params).map_err(|e| format!("{name}: {e}"))
}

/// `LstmRegressor::fit` on the tape == the specification loop: every
/// epoch loss and every final weight, bitwise.
#[test]
fn lstm_regressor_fit_matches_spec_loop_bitwise() {
    forall(
        "LstmRegressor::fit == spec loop, bitwise",
        &Config::default().cases(32),
        random_fit_case,
        shrinks::none,
        |case| {
            let mut model = LstmRegressor::new(case.window, case.channels, case.hidden, case.seed);
            let losses =
                model.fit(&case.windows, &case.targets, &case.cfg).map_err(|e| e.to_string())?;
            fit_eq("LstmRegressor", spec_regressor(case), losses, model.params())
        },
    );
}

/// `LstmAutoencoder::fit` on the tape == the specification loop.
#[test]
fn lstm_autoencoder_fit_matches_spec_loop_bitwise() {
    forall(
        "LstmAutoencoder::fit == spec loop, bitwise",
        &Config::default().cases(32),
        random_fit_case,
        shrinks::none,
        |case| {
            let mut model =
                LstmAutoencoder::new(case.window, case.channels, case.hidden, case.seed);
            let losses = model.fit(&case.windows, &case.cfg).map_err(|e| e.to_string())?;
            fit_eq("LstmAutoencoder", spec_autoencoder(case), losses, model.params())
        },
    );
}

/// `TadGan::fit` on the tapes == the specification loop.
#[test]
fn tadgan_fit_matches_spec_loop_bitwise() {
    forall(
        "TadGan::fit == spec loop, bitwise",
        &Config::default().cases(16),
        |rng: &mut SintelRng| (random_fit_case(rng), 1 + rng.index(3)),
        shrinks::none,
        |(case, latent)| {
            let mut model =
                TadGan::new(case.window, case.channels, case.hidden, *latent, case.seed);
            let losses = model.fit(&case.windows, &case.cfg).map_err(|e| e.to_string())?;
            fit_eq("TadGan", spec_tadgan(case, *latent), losses, model.params())
        },
    );
}
