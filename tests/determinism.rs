//! Reproducibility guarantees across the stack — the paper's
//! transparency claim (§3.2: "This transparency is crucial to making our
//! results reproducible.").

use sintel_repro::sintel_datasets::{load, DatasetConfig, DatasetId};
use sintel_repro::sintel_hil::study::{run_study, StudyConfig};
use sintel_repro::sintel_pipeline::hub;
use sintel_repro::sintel_store::SintelDb;
use sintel_repro::sintel_timeseries::Signal;

fn demo_signal() -> Signal {
    let vals: Vec<f64> = (0..600)
        .map(|t| {
            (std::f64::consts::TAU * t as f64 / 40.0).sin()
                + if (300..=310).contains(&t) { 4.0 } else { 0.0 }
        })
        .collect();
    Signal::from_values("det", vals)
}

/// Building the same template twice and running it on the same data
/// yields bit-identical detections — model init, shuffling, and every
/// random choice derive from fixed seeds.
#[test]
fn pipelines_are_deterministic() {
    for name in ["arima", "azure_anomaly_detection", "dense_autoencoder"] {
        let signal = demo_signal();
        let run = |_: ()| {
            let mut pipeline = hub::build_pipeline(name).unwrap();
            pipeline.fit_detect(&signal, &signal).unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a.len(), b.len(), "{name}: detection count differs");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interval, y.interval, "{name}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{name}: score differs");
        }
    }
}

/// Dataset generation is bit-stable for a given seed, and distinct for
/// different seeds — the property that makes benchmark runs comparable
/// across machines and sessions.
#[test]
fn corpora_are_seed_stable() {
    let cfg = DatasetConfig { seed: 123, signal_scale: 0.02, length_scale: 0.05 };
    let a = load(DatasetId::Yahoo, &cfg);
    let b = load(DatasetId::Yahoo, &cfg);
    for (sa, sb) in a.iter_signals().zip(b.iter_signals()) {
        assert_eq!(sa.signal.values(), sb.signal.values());
        assert_eq!(sa.anomalies, sb.anomalies);
    }
    let c = load(DatasetId::Yahoo, &DatasetConfig { seed: 124, ..cfg });
    let va = a.iter_signals().next().unwrap().signal.values();
    let vc = c.iter_signals().next().unwrap().signal.values();
    assert_ne!(va, vc);
}

/// The user study simulation replays identically from its seed, so the
/// Figure 8b numbers in EXPERIMENTS.md are reproducible claims.
#[test]
fn study_replays_identically() {
    let a = run_study(&StudyConfig::default(), &SintelDb::in_memory()).unwrap();
    let b = run_study(&StudyConfig::default(), &SintelDb::in_memory()).unwrap();
    assert_eq!(a.ml_presented, b.ml_presented);
    assert_eq!(a.ml_missed, b.ml_missed);
}

/// Tuning is reproducible end-to-end: same template, data and budget
/// give the same best score.
#[test]
fn tuning_is_deterministic() {
    use sintel_repro::sintel::tune::{tune_template, TuneSetting};
    let signal = demo_signal();
    let template = hub::template_by_name("arima").unwrap();
    let run = |_: ()| {
        tune_template(&template, &signal, &TuneSetting::Unsupervised, 4).unwrap()
    };
    let a = run(());
    let b = run(());
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.history.len(), b.history.len());
}
