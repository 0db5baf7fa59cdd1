//! The benchmark's memory column (Figure 7a) measures each
//! cell on the worker that runs it with the `sintel_common::alloc`
//! meter: with the meter installed, a row that ran reports a nonzero
//! peak, and the same peak at every thread count.

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
    let peak_at = |threads: usize| {
        sintel_common::set_threads(Some(threads));
        let rows = benchmark(&cfg).expect("benchmark");
        assert_eq!(rows.len(), 1);
        rows[0].peak_memory
    };
    let (one, two) = (peak_at(1), peak_at(2));
    sintel_common::set_threads(None);
    assert!(one > 0, "no memory measured");
    assert_eq!(one, two, "the memory column moved with the thread count");
}
