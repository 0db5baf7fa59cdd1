//! Benchmarking — the paper's Figure 4c: compare multiple pipelines on
//! multiple datasets under identical conditions with one call, then
//! persist the results into the knowledge base.
//!
//! ```text
//! benchmark(pipelines=[...], datasets=['NAB', ...], metrics=[...], rank='f1')
//! ```
//!
//! Run: `cargo run --release --example benchmarking`
//! (set `SINTEL_SCALE` to grow/shrink the corpora)

use sintel::benchmark::{benchmark, persist_benchmark, render_table, BenchmarkConfig, MetricKind};
use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_store::SintelDb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::var("SINTEL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let cfg = BenchmarkConfig {
        pipelines: vec!["arima".into(), "dense_autoencoder".into(), "azure_anomaly_detection".into()],
        datasets: vec![DatasetId::Nab, DatasetId::Yahoo],
        data: DatasetConfig { seed: 42, signal_scale: scale, length_scale: 0.12 },
        metric: MetricKind::Overlap,
        ..BenchmarkConfig::default()
    };
    println!(
        "benchmarking {} pipelines on {} datasets (scale {scale}) …\n",
        cfg.pipelines.len(),
        cfg.datasets.len()
    );
    let rows = benchmark(&cfg)?;
    print!("{}", render_table(&rows));

    println!("\ncomputational performance:");
    for row in &rows {
        println!(
            "  {:<24} {:<6} train {:>9.2?}  latency {:>9.2?}  overhead {:>5.2}%",
            row.pipeline,
            row.dataset,
            row.train_time,
            row.detect_time,
            row.overhead_percent()
        );
    }

    // Persist into the knowledge base so future sessions can compare.
    let db = SintelDb::in_memory();
    persist_benchmark(&db, &rows)?;
    println!(
        "\npersisted {} result rows into the knowledge base ({} experiments).",
        rows.len(),
        db.raw().count(
            sintel_store::schema::collections::EXPERIMENTS,
            &sintel_store::Filter::All
        )
    );
    Ok(())
}
