#![warn(missing_docs)]

//! # sintel-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation section (§4). One binary per artefact:
//!
//! | Artefact | Binary | Paper content |
//! |----------|--------|---------------|
//! | Table 1  | `table1_features`  | system capability matrix |
//! | Table 2  | `table2_datasets`  | dataset summary (492 signals / 2349 anomalies) |
//! | Table 3  | `table3_quality`   | unsupervised F1/precision/recall per pipeline × dataset |
//! | Fig 7a   | `fig7a_compute`    | training time, pipeline latency, memory |
//! | Fig 7b   | `fig7b_overhead`   | standalone primitives vs end-to-end pipelines |
//! | Fig 7c   | `fig7c_automl`     | F1 before/after supervised tuning on NAB |
//! | Fig 8a   | `fig8a_feedback`   | semi-supervised F1 vs #annotations |
//! | Fig 8b   | `fig8b_usecase`    | satellite-study tag taxonomy |
//!
//! Every binary honours `SINTEL_SCALE` (fraction of the published corpus
//! size, default chosen per experiment to finish in minutes on a laptop)
//! and prints paper-formatted rows so measured numbers can be placed
//! next to the published ones (see EXPERIMENTS.md).
//!
//! The one micro-bench, `cargo bench -p sintel-bench --bench ablations`,
//! covers the DESIGN.md §4 ablations: dynamic vs fixed thresholding, GP
//! vs random tuner, indexed vs scanned store queries, error smoothing
//! on/off, the two scoring algorithms and the store durability levels.
//! End-to-end and per-layer numbers come from `perfbench/`.

use std::time::Duration;

/// Observability hookup of a bench binary, armed from the environment:
///
/// * `SINTEL_LOG` — log verbosity (read by `sintel-obs` itself).
/// * `SINTEL_TRACE_OUT` — write the run's span trace (JSON lines) here.
/// * `SINTEL_METRICS_OUT` — write the run's metrics snapshot
///   (Prometheus text) here.
///
/// Call [`obs_session`] first thing in `main` and [`ObsSession::finish`]
/// after the experiment: the published table output is untouched, the
/// exports ride alongside it.
#[must_use = "call .finish() after the experiment to write the exports"]
pub struct ObsSession {
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

/// Arm trace capture if `SINTEL_TRACE_OUT` is set (see [`ObsSession`]).
pub fn obs_session() -> ObsSession {
    let session = ObsSession {
        trace_out: std::env::var("SINTEL_TRACE_OUT").ok(),
        metrics_out: std::env::var("SINTEL_METRICS_OUT").ok(),
    };
    if session.trace_out.is_some() {
        sintel_obs::tracing_start();
    }
    session
}

impl ObsSession {
    /// Write the requested exports; failures are logged, not fatal — a
    /// bench run's numbers are worth keeping even if an export path is
    /// bad.
    pub fn finish(self) {
        if let Some(path) = &self.trace_out {
            let events = sintel_obs::tracing_stop();
            if let Err(e) = std::fs::write(path, sintel_obs::export_jsonl(&events)) {
                sintel_obs::error!(
                    "sintel::bench",
                    format!("writing SINTEL_TRACE_OUT {path}: {e}"),
                );
            }
        }
        if let Some(path) = &self.metrics_out {
            let snapshot = sintel_obs::global().snapshot();
            if let Err(e) = std::fs::write(path, snapshot.to_prometheus()) {
                sintel_obs::error!(
                    "sintel::bench",
                    format!("writing SINTEL_METRICS_OUT {path}: {e}"),
                );
            }
        }
    }
}

/// Read `SINTEL_SCALE` (clamped), with a per-experiment default.
pub fn scale_from_env(default_scale: f64) -> f64 {
    std::env::var("SINTEL_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default_scale)
        .clamp(0.001, 1.0)
}

/// Median of `samples` timed samples (at least one). `sample` runs one
/// sample and returns its measured time, so it may do untimed set-up
/// before starting its clock.
pub fn median_time(samples: usize, mut sample: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..samples.max(1)).map(|_| sample()).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Format a duration compactly for report tables.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{:.1} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} ms", s * 1e3)
    }
}

/// Format bytes compactly.
pub fn fmt_bytes(b: usize) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GiB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MiB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KiB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

/// Render a crude ASCII bar for figure-style output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 || !value.is_finite() {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.5)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_secs(120)), "2.0 min");
    }

    #[test]
    fn byte_formats() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert!(fmt_bytes(2 * 1024 * 1024 * 1024).contains("GiB"));
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn median_time_takes_the_middle_sample() {
        let mut next = [5u64, 1, 9, 3, 7].into_iter();
        let median = median_time(5, || Duration::from_millis(next.next().unwrap_or(0)));
        assert_eq!(median, Duration::from_millis(5));
        assert_eq!(median_time(0, || Duration::from_nanos(4)), Duration::from_nanos(4));
    }

    #[test]
    fn scale_env_default() {
        std::env::remove_var("SINTEL_SCALE");
        assert_eq!(scale_from_env(0.1), 0.1);
    }
}
