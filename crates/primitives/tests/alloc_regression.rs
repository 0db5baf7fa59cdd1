//! Allocation-regression suite for the hot data path (DESIGN.md §4j).
//!
//! The arena refactor's contract is that the per-window cost of the
//! pipeline's two hottest loops is *pure compute*: window extraction
//! fills one presized flat matrix, and batched inference streams every
//! window through one reused scratch. Both must perform O(1) heap
//! allocations per call — a count that does not grow with the number of
//! windows. The workspace's allocation meter pins that: if someone
//! reintroduces a per-window `Vec` clone, these tests fail with the
//! exact allocation delta.

use sintel_common::alloc;
use sintel_linalg::Matrix;
use sintel_nn::LstmRegressor;
use sintel_timeseries::{rolling_windows, Signal};

#[global_allocator]
static METER: alloc::Counting = alloc::Counting;

/// Allocation events on this thread while running `f`: `alloc`,
/// `alloc_zeroed` and `realloc` count (a growing `Vec` shows up as
/// reallocs); frees do not.
fn alloc_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocated, out) = alloc::measure(f);
    (allocated.events, out)
}

fn ramp_signal(n: usize) -> Signal {
    Signal::from_values("s", (0..n).map(|i| (i as f64 * 0.1).sin()).collect())
}

/// `rolling_windows` performs the same number of allocations no matter
/// how many windows it extracts: every buffer is sized up front from
/// the window-count formula.
#[test]
fn rolling_windows_allocations_do_not_grow_with_window_count() {
    let window = 16;
    let small_sig = ramp_signal(200 + window + 1);
    let large_sig = ramp_signal(2000 + window + 1);

    // Warm-up pass so one-time lazy state doesn't pollute the counts.
    rolling_windows(&small_sig, window, 1, true).unwrap();

    let (small, ws_small) = alloc_events(|| rolling_windows(&small_sig, window, 1, true).unwrap());
    let (large, ws_large) = alloc_events(|| rolling_windows(&large_sig, window, 1, true).unwrap());
    assert_eq!(ws_small.len(), 201);
    assert_eq!(ws_large.len(), 2001);

    assert_eq!(
        small, large,
        "rolling_windows allocation count grew with the window count \
         ({small} events for 201 windows vs {large} for 2001)"
    );
    // Belt and braces: the absolute count stays a small constant
    // (windows arena + targets + first_index + timestamps + slack).
    assert!(small <= 16, "rolling_windows made {small} allocations per call");
}

/// `LstmRegressor::predict_batch` reuses one scratch per batch on the
/// serial path: allocations per call are constant, not O(windows).
#[test]
fn predict_batch_allocations_do_not_grow_with_window_count() {
    // Pin the serial path: the parallel path's workers allocate on
    // *their* threads, which this thread-local counter cannot (and
    // should not) observe.
    sintel_common::par::set_threads(Some(1));
    let window = 8;
    let model = LstmRegressor::new(window, 1, 4, 7);
    let mk_windows = |n: usize| {
        let flat: Vec<f64> = (0..n * window).map(|i| (i as f64 * 0.01).sin()).collect();
        Matrix::from_vec(n, window, flat)
    };
    let small_in = mk_windows(200);
    let large_in = mk_windows(2000);

    model.predict_batch(&small_in).unwrap(); // warm-up

    let (small, preds_small) = alloc_events(|| model.predict_batch(&small_in).unwrap());
    let (large, preds_large) = alloc_events(|| model.predict_batch(&large_in).unwrap());
    assert_eq!(preds_small.len(), 200);
    assert_eq!(preds_large.len(), 2000);

    assert_eq!(
        small, large,
        "predict_batch allocation count grew with the batch size \
         ({small} events for 200 windows vs {large} for 2000)"
    );
    // One scratch (two LSTM states + inter-layer buffer + head output)
    // plus the output vector, with slack for Result plumbing.
    assert!(small <= 16, "predict_batch made {small} allocations per call");
}

/// `LstmRegressor::fit` trains through one reusable tape per layer:
/// its allocation count depends on the number of windows and epochs,
/// never on the window length. Per-step cache clones would make the
/// T = 64 fit allocate four times as often as the T = 16 one.
#[test]
fn lstm_fit_allocations_do_not_grow_with_window_length() {
    let n = 24;
    let cfg = sintel_nn::TrainConfig { epochs: 2, batch_size: 8, learning_rate: 0.01, seed: 3 };
    let fit_events = |window: usize| {
        let flat: Vec<f64> = (0..n * window).map(|i| (i as f64 * 0.07).sin()).collect();
        let windows = Matrix::from_vec(n, window, flat);
        let targets: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut model = LstmRegressor::new(window, 1, 6, 5);
        let (events, losses) = alloc_events(|| model.fit(&windows, &targets, &cfg).unwrap());
        assert_eq!(losses.len(), cfg.epochs);
        events
    };
    fit_events(16); // warm-up
    let short = fit_events(16);
    let long = fit_events(64);
    assert_eq!(
        short, long,
        "LstmRegressor::fit allocation count grew with the window length \
         ({short} events at T = 16 vs {long} at T = 64)"
    );
}

/// `LstmRegressor::fit` backpropagates the head through one reused
/// gradient row (`Dense::backward_into`): its allocation count does not
/// depend on how many windows it trains on. A per-sample gradient
/// `Vec` would make the 96-window fit allocate four times as often as
/// the 24-window one.
#[test]
fn lstm_fit_allocations_do_not_grow_with_window_count() {
    let window = 12;
    let cfg = sintel_nn::TrainConfig { epochs: 2, batch_size: 8, learning_rate: 0.01, seed: 3 };
    let fit_events = |n: usize| {
        let flat: Vec<f64> = (0..n * window).map(|i| (i as f64 * 0.07).sin()).collect();
        let windows = Matrix::from_vec(n, window, flat);
        let targets: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut model = LstmRegressor::new(window, 1, 6, 5);
        let (events, losses) = alloc_events(|| model.fit(&windows, &targets, &cfg).unwrap());
        assert_eq!(losses.len(), cfg.epochs);
        events
    };
    fit_events(24); // warm-up
    let few = fit_events(24);
    let many = fit_events(96);
    assert_eq!(
        few, many,
        "LstmRegressor::fit allocation count grew with the window count \
         ({few} events for 24 windows vs {many} for 96)"
    );
}

/// Built-in primitives share one metadata instance per type, built on
/// first use: constructing a primitive (every `Sintel::new` and every
/// serve pass builds a whole pipeline) allocates only the box and the
/// primitive's own state, never its name, documentation, slot or
/// hyperparameter tables.
#[test]
fn primitive_construction_shares_its_metadata() {
    use sintel_primitives::registry::{build_primitive, PRIMITIVE_NAMES};
    for &name in PRIMITIVE_NAMES {
        let first = build_primitive(name).unwrap();
        let (events, second) = alloc_events(|| build_primitive(name).unwrap());
        assert!(
            std::ptr::eq(first.meta(), second.meta()),
            "{name}: each instance built its own metadata"
        );
        assert!(events <= 3, "{name}: construction made {events} allocations");
    }
}

/// `Arima::fit` streams both Hannan–Rissanen lag regressions through
/// `NormalEquations` from one reused row: its allocation count does not
/// depend on the series length. Per-row design `Vec`s would make the
/// 2048-sample fit allocate eight times as often as the 256-sample one.
#[test]
fn arima_fit_allocations_do_not_grow_with_series_length() {
    let series = |n: usize| -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.1).sin() + 0.3 * (i as f64 * 0.37).cos()).collect()
    };
    let (short, long) = (series(256), series(2048));
    for (p, d, q) in [(5, 0, 1), (3, 1, 2), (12, 2, 6)] {
        sintel_stats::Arima::fit(&short, p, d, q).unwrap(); // warm-up
        let (few, _) = alloc_events(|| sintel_stats::Arima::fit(&short, p, d, q).unwrap());
        let (many, _) = alloc_events(|| sintel_stats::Arima::fit(&long, p, d, q).unwrap());
        assert_eq!(
            few, many,
            "Arima::fit({p}, {d}, {q}) allocation count grew with the series length \
             ({few} events for 256 samples vs {many} for 2048)"
        );
    }
}
