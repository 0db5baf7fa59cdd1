//! The benchmark's memory column (Figure 7a, Table 3) reads the process
//! peak of the `sintel_common::alloc` meter: with the meter installed,
//! a row that ran reports a nonzero peak.

use sintel::benchmark::{benchmark, BenchmarkConfig, MetricKind};
use sintel_datasets::{DatasetConfig, DatasetId};

#[global_allocator]
static METER: sintel_common::alloc::Counting = sintel_common::alloc::Counting;

#[test]
fn a_benchmark_row_reports_its_peak_memory() {
    let cfg = BenchmarkConfig {
        pipelines: vec!["arima".into()],
        datasets: vec![DatasetId::Nab],
        // One signal per NAB subset: every count scales down to its floor.
        data: DatasetConfig { seed: 42, signal_scale: 0.001, length_scale: 0.08 },
        metric: MetricKind::Overlap,
        ..BenchmarkConfig::default()
    };
    let rows = benchmark(&cfg).expect("benchmark");
    assert_eq!(rows.len(), 1);
    assert!(rows[0].peak_memory > 0, "{:?}", rows[0]);
}
