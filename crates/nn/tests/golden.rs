//! Golden bits for the three LSTM models.
//!
//! Each model trains once at a fixed small configuration (batch sizes
//! that leave a remainder chunk, more than one channel where the model
//! allows it), and the test pins the exact bits of every epoch loss
//! plus an FNV-1a digest over the bits of every final parameter.
//!
//! The constants were captured from the per-sample cache-path training
//! loop (`Lstm::forward` / `Lstm::backward` per window, the code the
//! flat training tape replaced) before that change landed. The
//! property suite (`props.rs`) proves the tape bitwise-equal to the
//! specification kernels; this file proves the specification itself
//! has not drifted.

use sintel_common::SintelRng;
use sintel_linalg::Matrix;
use sintel_nn::{LstmAutoencoder, LstmRegressor, TadGan, TrainConfig};

/// FNV-1a over the bit patterns of every parameter, in order.
fn digest(params: &[&[f64]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in params.iter().flat_map(|p| p.iter()) {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `n` windows of `width` values: a noisy sine, seeded.
fn windows(n: usize, width: usize, seed: u64) -> Matrix {
    let mut rng = SintelRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|k| {
            (0..width)
                .map(|i| ((k + i) as f64 * 0.37).sin() + rng.uniform_range(-0.1, 0.1))
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn check(name: &str, losses: &[f64], params: &[&[f64]], want_losses: &[u64], want_digest: u64) {
    let got: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
    let got_digest = digest(params);
    assert!(
        got == want_losses && got_digest == want_digest,
        "{name} drifted from its golden bits:\n  losses {got:#018x?} (want {want_losses:#018x?})\n  \
         digest {got_digest:#018x} (want {want_digest:#018x})"
    );
}

#[test]
fn lstm_regressor_golden_bits() {
    let (window, channels) = (7, 2);
    let w = windows(23, window * channels, 1);
    let targets: Vec<f64> = (0..w.rows()).map(|k| (k as f64 * 0.21).cos()).collect();
    let mut model = LstmRegressor::new(window, channels, 5, 3);
    let cfg = TrainConfig { epochs: 3, batch_size: 5, learning_rate: 0.01, seed: 4 };
    let losses = model.fit(&w, &targets, &cfg).expect("fit");
    check(
        "LstmRegressor",
        &losses,
        &model.params(),
        &[0x3fe6_2c71_d398_117e, 0x3fe0_55c9_075d_b21d, 0x3fdc_4a5e_ef16_97c4],
        0x45f8_0ee3_381f_de1b,
    );
}

#[test]
fn lstm_autoencoder_golden_bits() {
    let (window, channels) = (6, 2);
    let w = windows(17, window * channels, 2);
    let mut model = LstmAutoencoder::new(window, channels, 4, 5);
    let cfg = TrainConfig { epochs: 3, batch_size: 4, learning_rate: 0.01, seed: 6 };
    let losses = model.fit(&w, &cfg).expect("fit");
    check(
        "LstmAutoencoder",
        &losses,
        &model.params(),
        &[0x3ff1_1cc0_1d2a_a348, 0x3fef_c689_4084_3f44, 0x3fef_13a5_5058_4fbb],
        0xc600_aa0b_0e30_e19a,
    );
}

#[test]
fn tadgan_golden_bits() {
    let (window, channels) = (6, 1);
    let w = windows(13, window * channels, 3);
    let mut model = TadGan::new(window, channels, 4, 3, 7);
    let cfg = TrainConfig { epochs: 2, batch_size: 4, learning_rate: 0.01, seed: 8 };
    let losses = model.fit(&w, &cfg).expect("fit");
    check(
        "TadGan",
        &losses,
        &model.params(),
        &[0x3fe7_5245_a212_b251, 0x3fe3_cb6f_c660_6cd6],
        0xd99a_b957_bab6_5e81,
    );
}
