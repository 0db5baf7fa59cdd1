//! Substrate micro-benchmarks: the hot paths every experiment leans on
//! (FFT, LSTM step, ARIMA fit, window extraction, JSON round-trip).

use sintel_common::microbench::Criterion;
use sintel_common::{criterion_group, criterion_main};
use std::hint::black_box;

use sintel_common::SintelRng;
use sintel_timeseries::Signal;

fn substrate_benches(c: &mut Criterion) {
    let mut rng = SintelRng::seed_from_u64(1);
    let series: Vec<f64> = (0..4096).map(|_| rng.normal(0.0, 1.0)).collect();

    c.bench_function("fft_4096", |b| {
        b.iter(|| black_box(sintel_stats::fft(black_box(&series))));
    });

    c.bench_function("spectral_residual_4096", |b| {
        b.iter(|| {
            black_box(sintel_stats::spectral::spectral_residual_scores(
                black_box(&series),
                3,
                21,
            ))
        });
    });

    c.bench_function("arima_fit_2000", |b| {
        let data = &series[..2000];
        b.iter(|| black_box(sintel_stats::Arima::fit(black_box(data), 5, 0, 1).unwrap()));
    });

    c.bench_function("lstm_forward_backward_w50_h20", |b| {
        let mut lstm = sintel_nn::Lstm::new(1, 20, &mut SintelRng::seed_from_u64(2));
        let xs: Vec<f64> = (0..50).map(|t| (t as f64 * 0.1).sin()).collect();
        let mut tape = sintel_nn::LstmTape::new();
        let mut dh = Vec::new();
        b.iter(|| {
            let seq = sintel_nn::Seq::flat(black_box(&xs), 1);
            lstm.forward_tape(seq, &mut tape);
            dh.clear();
            dh.extend_from_slice(tape.hidden_states());
            lstm.backward_tape(seq, &mut tape, sintel_nn::HiddenGrad::Every(&dh), None);
            black_box(lstm.grads());
            lstm.zero_grad();
        });
    });

    c.bench_function("rolling_windows_10k_w100", |b| {
        let signal = Signal::from_values("s", (0..10_000).map(|i| i as f64).collect());
        b.iter(|| {
            black_box(sintel_timeseries::rolling_windows(black_box(&signal), 100, 1, true).unwrap())
        });
    });

    c.bench_function("store_json_roundtrip", |b| {
        let doc = sintel_store::Doc::obj()
            .with("signal", "S-1")
            .with("events", (0..50).map(|i| i as i64).collect::<Vec<i64>>())
            .with("scores", (0..50).map(|i| i as f64 * 0.01).collect::<Vec<f64>>());
        b.iter(|| {
            let json = sintel_store::json::to_json(black_box(&doc));
            black_box(sintel_store::json::from_json(&json).unwrap())
        });
    });
}

criterion_group!(benches, substrate_benches);
criterion_main!(benches);
