//! Metric names and units, the result line, and the output-digest
//! registry that makes every run of a seed agree with the first.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, printed on every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// Primitives of the three benchmarked templates (`lstm_dynamic_threshold`,
/// `arima`, `azure_anomaly_detection`).
pub const PRIMITIVES: &[&str] = &[
    "time_segments_aggregate",
    "SimpleImputer",
    "MinMaxScaler",
    "rolling_window_sequences",
    "lstm_regressor",
    "arima",
    "azure_anomaly_service",
    "regression_errors",
    "find_anomalies",
    "fixed_threshold",
];

/// Primitive phases, as the pipeline names their spans.
pub const PHASES: &[&str] = &["fit", "produce", "update"];

/// Per-layer metrics other than the per-primitive ones, printed on
/// every workload with tracing on (0 where the layer does no work).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("f1", "1"),
    ("latency_p90_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("metrics.score_ms", "ms"),
    ("pipeline.self_ms", "ms"),
    ("serve.offer_ns", "ns"),
    ("serve.tick_ms", "ms"),
    ("serve.tick_p99_ms", "ms"),
    ("serve.pass_ms", "ms"),
    ("serve.pass.self_ms", "ms"),
    ("serve.tick.self_ms", "ms"),
    ("serve.checkpoint_ms", "ms"),
    ("store.wal_bytes_per_tick", "B"),
    ("store.wal_append_ms", "ms"),
    ("store.compactions", "count"),
    ("store.compaction_ms", "ms"),
    ("store.fsyncs", "count"),
    ("store.open_ms", "ms"),
    ("store.replayed_batches", "count"),
    ("serve.open_ms", "ms"),
    ("serve.passes", "count"),
    ("serve.pass_failures", "count"),
    ("serve.emitted", "count"),
    ("serve.refused", "count"),
    ("policy.attempts_per_pass", "1"),
    ("obs.spans_per_op", "1"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
];

/// Every per-layer metric name and unit, primitives included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for p in PRIMITIVES {
        for phase in PHASES {
            out.push((format!("primitive.{p}.{phase}_ms"), "ms"));
        }
    }
    out
}

/// Name of the per-primitive self-time metric.
pub fn primitive_metric(primitive: &str, phase: &str) -> String {
    format!("primitive.{primitive}.{phase}_ms")
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured loops.
    pub attempted: u64,
    /// Ops that failed (errors, refused admissions, failed or skipped
    /// passes).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Facts about the run, printed before the result line.
    pub stamp: BTreeMap<String, String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Record a fact for the stamp.
    pub fn stamp(&mut self, key: &str, value: impl ToString) {
        self.stamp.insert(key.to_string(), value.to_string());
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// the chosen metric set. A missing end-to-end value or a
    /// non-finite one is an error; per-layer metrics default to 0 on
    /// workloads where their layer does no work.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let wanted: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut metrics = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = match self.values.get(&name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// The stamp as one JSON object line.
    pub fn stamp_line(&self) -> String {
        let fields: Vec<String> = self
            .stamp
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{\"stamp\": {{{}}}}}", fields.join(", "))
    }
}

/// FNV-1a over a byte stream: the output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in an integer.
    pub fn int(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Mix in a float, bit for bit.
    pub fn float(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest as hex.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Compare this run's output digest with the one the first run of the
/// same `key` recorded under `dir`, recording it if this is the first.
pub fn check_registry(dir: &Path, key: &str, record: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(first) if first == record => Ok(()),
        Ok(first) => Err(format!(
            "outputs differ from the first run of {key}: first {first:?}, this run {record:?}"
        )),
        Err(_) => {
            let tmp = dir.join(format!(".{key}.{}", std::process::id()));
            std::fs::write(&tmp, record)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("recording {}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.result_line(false).expect("complete");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        out.values.remove("setup_s");
        assert!(out.result_line(false).is_err());
        let traced = out.result_line(true).expect("per-layer defaults to 0");
        assert!(traced.contains("\"store.fsyncs\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn registry_accepts_the_same_record_and_rejects_another() {
        let dir = std::env::temp_dir().join(format!("perfbench-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        check_registry(&dir, "k", "abc").expect("first run records");
        check_registry(&dir, "k", "abc").expect("same outputs pass");
        assert!(check_registry(&dir, "k", "abd").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
