//! **Table 3** — unsupervised anomaly detection quality (F1, precision,
//! recall) per pipeline on each dataset, scored with the *overlapping
//! segment* method.
//!
//! The paper's qualitative findings this run should reproduce:
//!
//! * no single pipeline dominates every dataset;
//! * MS Azure (spectral residual here) posts the highest recall and the
//!   lowest precision everywhere — it fires on everything;
//! * prediction pipelines (LSTM DT, ARIMA) do well on Yahoo's point
//!   outliers; reconstruction pipelines are competitive on NAB/NASA.
//!
//! Run: `SINTEL_SCALE=0.1 cargo run -p sintel-bench --release --bin table3_quality`

use sintel::benchmark::{benchmark, render_table, BenchmarkConfig, MetricKind};
use sintel_datasets::{DatasetConfig, DatasetId};

#[global_allocator]
static ALLOC: sintel::alloc::TrackingAllocator = sintel::alloc::TrackingAllocator;

fn main() {
    let obs = sintel_bench::obs_session();
    let scale = sintel_bench::scale_from_env(0.06);
    let cfg = BenchmarkConfig {
        pipelines: sintel_pipeline::hub::available_pipelines()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        datasets: vec![DatasetId::Nab, DatasetId::Nasa, DatasetId::Yahoo],
        data: DatasetConfig { seed: 42, signal_scale: scale, length_scale: (scale * 2.5).clamp(0.12, 1.0) },
        metric: MetricKind::Overlap,
        ..BenchmarkConfig::default()
    };
    eprintln!(
        "Table 3: running {} pipelines x {} datasets at scale {scale} …",
        cfg.pipelines.len(),
        cfg.datasets.len()
    );
    let t0 = std::time::Instant::now();
    let rows = benchmark(&cfg).expect("benchmark run");
    println!(
        "Table 3: Unsupervised anomaly detection results (overlapping segment, scale {scale})\n"
    );
    print!("{}", render_table(&rows));
    println!("\ntotal wall-clock: {}", sintel_bench::fmt_duration(t0.elapsed()));

    // Qualitative checks mirroring the paper's headline observations.
    let azure_rows: Vec<_> =
        rows.iter().filter(|r| r.pipeline == "azure_anomaly_detection").collect();
    let best_recall_is_azure = azure_rows.iter().all(|az| {
        rows.iter()
            .filter(|r| r.dataset == az.dataset)
            .all(|r| az.mean.recall >= r.mean.recall - 0.05)
    });
    println!(
        "azure has (near-)top recall on every dataset: {}",
        if best_recall_is_azure { "yes (matches paper)" } else { "NO" }
    );
    let azure_low_precision = azure_rows.iter().all(|az| {
        rows.iter()
            .filter(|r| r.dataset == az.dataset && r.pipeline != az.pipeline)
            .all(|r| az.mean.precision <= r.mean.precision + 0.05)
    });
    println!(
        "azure has (near-)bottom precision on every dataset: {}",
        if azure_low_precision { "yes (matches paper)" } else { "NO" }
    );
    let winners: std::collections::HashSet<&str> = cfg
        .datasets
        .iter()
        .filter_map(|d| {
            rows.iter()
                .filter(|r| r.dataset == format!("{:?}", d).to_uppercase() || r.dataset == d.name())
                .max_by(|a, b| a.mean.f1.total_cmp(&b.mean.f1))
                .map(|r| r.pipeline.as_str())
        })
        .collect();
    println!("distinct per-dataset winners: {} (paper: no single pipeline dominates)", winners.len());
    obs.finish();
}
