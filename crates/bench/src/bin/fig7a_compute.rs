//! **Figure 7a** — pipeline computational performance: training time,
//! pipeline latency (detect mode), and memory across the benchmark
//! corpus.
//!
//! Expected shape (paper): TadGAN is the slowest to train and to produce
//! output (four adversarial networks); the reconstruction pipelines
//! (TadGAN, LSTM AE, Dense AE) need the most memory; ARIMA is comparable
//! to deep pipelines once training + latency are combined (its rolling
//! forecast is sequential).
//!
//! Memory is a pipeline's largest cell: the peak live heap bytes of one
//! build, fit and detect on one signal, measured on the worker that ran
//! it by the `sintel_common::alloc` meter, which this binary installs as
//! its global allocator. It does not change with `SINTEL_THREADS`.
//!
//! Run: `SINTEL_SCALE=0.08 cargo run -p sintel-bench --release --bin fig7a_compute`

use sintel::benchmark::{benchmark, BenchmarkConfig, MetricKind};
use sintel_datasets::{DatasetConfig, DatasetId};

#[global_allocator]
static METER: sintel_common::alloc::Counting = sintel_common::alloc::Counting;

fn main() {
    let obs = sintel_bench::obs_session();
    let scale = sintel_bench::scale_from_env(0.05);
    eprintln!("Figure 7a: compute profile at scale {scale} …");

    println!("Figure 7a: pipeline computational performance (scale {scale})\n");
    println!(
        "{:<26} {:>14} {:>14} {:>12}   (training-time bar)",
        "pipeline", "training time", "latency", "memory"
    );
    // Every hub pipeline (the default), in one sweep.
    let cfg = BenchmarkConfig {
        datasets: vec![DatasetId::Nab, DatasetId::Nasa, DatasetId::Yahoo],
        data: DatasetConfig { seed: 42, signal_scale: scale, length_scale: (scale * 2.5).clamp(0.12, 1.0) },
        metric: MetricKind::Overlap,
        ..BenchmarkConfig::default()
    };
    let rows = benchmark(&cfg).expect("benchmark run");
    let results: Vec<_> = cfg
        .pipelines
        .iter()
        .map(|name| {
            let mine = || rows.iter().filter(|r| &r.pipeline == name);
            let train: std::time::Duration = mine().map(|r| r.train_time).sum();
            let detect: std::time::Duration = mine().map(|r| r.detect_time).sum();
            let mem = mine().map(|r| r.peak_memory).max().unwrap_or(0);
            (name.clone(), train, detect, mem)
        })
        .collect();
    let max_train =
        results.iter().map(|r| r.1.as_secs_f64()).fold(0.0, f64::max);
    for (name, train, detect, mem) in &results {
        println!(
            "{:<26} {:>14} {:>14} {:>12}   {}",
            name,
            sintel_bench::fmt_duration(*train),
            sintel_bench::fmt_duration(*detect),
            sintel_bench::fmt_bytes(*mem),
            sintel_bench::bar(train.as_secs_f64(), max_train, 30),
        );
    }

    // Paper-shape checks.
    let tadgan = results.iter().find(|r| r.0 == "tadgan").expect("tadgan row");
    let slowest_train = results.iter().max_by_key(|r| r.1).expect("rows");
    println!(
        "\nTadGAN slowest to train: {} (paper: yes)",
        if slowest_train.0 == "tadgan" { "yes" } else { "no" }
    );
    let recon_mem: usize = results
        .iter()
        .filter(|r| ["tadgan", "lstm_autoencoder", "dense_autoencoder"].contains(&r.0.as_str()))
        .map(|r| r.3)
        .min()
        .unwrap_or(0);
    let pred_mem: usize = results
        .iter()
        .filter(|r| ["arima", "azure_anomaly_detection"].contains(&r.0.as_str()))
        .map(|r| r.3)
        .max()
        .unwrap_or(usize::MAX);
    println!(
        "reconstruction pipelines outweigh statistical ones in memory: {}",
        if recon_mem >= pred_mem { "yes (matches paper)" } else { "mixed" }
    );
    let _ = tadgan;
    obs.finish();
}
