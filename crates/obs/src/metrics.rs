//! Counters, gauges and fixed-log-bucket latency histograms.
//!
//! A [`Registry`] maps metric names (optionally carrying
//! `{key="value"}` labels, see [`labeled`]) to metrics. The process
//! [`global`] registry is what the instrumented stack records into;
//! tests can use private registries. [`Registry::snapshot`] freezes
//! the state into a [`MetricsSnapshot`] that renders as a
//! Prometheus-style text dump or a JSON object.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use sintel_common::json::{self, Doc};

use crate::format_f64;

/// Number of histogram buckets. Bucket `i` covers
/// `(ub(i-1), ub(i)]` seconds with `ub(i) = 1e-6 * 2^i`: 1 µs up to
/// ~4295 s, doubling each bucket; the last bucket also absorbs
/// overflow.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Upper bound (seconds) of bucket `i`.
fn bucket_upper_bound(i: usize) -> f64 {
    1e-6 * 2f64.powi(i as i32)
}

/// Index of the bucket a value falls into (deterministic: computed by
/// repeated doubling, not floating-point logs).
fn bucket_index(value: f64) -> usize {
    // NaN and non-positive values land in the first bucket.
    if value.is_nan() || value <= 0.0 {
        return 0;
    }
    let mut ub = 1e-6;
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS - 1 && value > ub {
        ub *= 2.0;
        i += 1;
    }
    i
}

/// A latency histogram with fixed logarithmic buckets.
///
/// Quantiles are bucket-resolution estimates: [`Histogram::quantile`]
/// returns the upper bound of the bucket containing the requested
/// rank, so the estimate is within one 2× bucket of the true value.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (seconds; negatives clamp to bucket 0).
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value.max(0.0);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (seconds).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate for `q` in `[0, 1]`:
    /// the upper bound of the bucket containing the `ceil(q·count)`-th
    /// observation. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound_seconds, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper_bound(i), n))
            .collect()
    }
}

/// One registered metric.
// Histogram dwarfs the scalar variants, but metrics are few and
// long-lived — boxing would buy nothing and cost an indirection on the
// hot `observe` path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Latency histogram.
    Histogram(Histogram),
}

/// A named collection of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add to a counter (creating it at zero first). `counter_add(n, 0)`
    /// pre-registers the counter so it appears in dumps before the
    /// first increment.
    pub fn counter_add(&self, name: &str, by: u64) {
        // `get_mut` first: the steady-state path (metric exists) must
        // not allocate — these run on ingest hot paths.
        let mut inner = self.lock();
        match inner.get_mut(name) {
            Some(Metric::Counter(v)) => *v += by,
            Some(other) => *other = Metric::Counter(by),
            None => {
                inner.insert(name.to_string(), Metric::Counter(by));
            }
        }
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.get_mut(name) {
            Some(metric) => *metric = Metric::Gauge(value),
            None => {
                inner.insert(name.to_string(), Metric::Gauge(value));
            }
        }
    }

    /// Record an observation (seconds) into a histogram.
    pub fn observe(&self, name: &str, seconds: f64) {
        let mut inner = self.lock();
        match inner.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(seconds),
            Some(other) => {
                let mut h = Histogram::new();
                h.observe(seconds);
                *other = Metric::Histogram(h);
            }
            None => {
                let mut h = Histogram::new();
                h.observe(seconds);
                inner.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Record a [`Duration`] into a histogram.
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_secs_f64());
    }

    /// Freeze the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { metrics: self.lock().clone() }
    }

    /// Remove every metric (between CLI runs / tests).
    pub fn reset(&self) {
        self.lock().clear();
    }
}

/// The process-wide registry the instrumented stack records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// [`Registry::counter_add`] on the global registry.
pub fn counter_add(name: &str, by: u64) {
    global().counter_add(name, by);
}

/// [`Registry::gauge_set`] on the global registry.
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// [`Registry::observe`] on the global registry.
pub fn observe(name: &str, seconds: f64) {
    global().observe(name, seconds);
}

/// [`Registry::observe_duration`] on the global registry.
pub fn observe_duration(name: &str, d: Duration) {
    global().observe_duration(name, d);
}

/// Canonical labeled metric name: `name{k="v",k2="v2"}`.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// An immutable copy of a registry's state, renderable as text.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Metric name (possibly labeled) → value.
    pub metrics: BTreeMap<String, Metric>,
}

/// Split `name{labels}` into (`name`, `{labels}` or "").
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(at) => name.split_at(at),
        None => (name, ""),
    }
}

impl MetricsSnapshot {
    /// Fetch a metric by (possibly labeled) name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Counter value, or `None` when absent / not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, or `None` when absent / not a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram, or `None` when absent / not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Prometheus-style text dump: `# TYPE` headers, counters and
    /// gauges as plain samples, histograms as summaries
    /// (`{quantile="…"}` samples plus `_sum` / `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (name, metric) in &self.metrics {
            let (base, labels) = split_labels(name);
            match metric {
                Metric::Counter(v) => {
                    if typed.insert(base) {
                        out.push_str(&format!("# TYPE {base} counter\n"));
                    }
                    out.push_str(&format!("{base}{labels} {v}\n"));
                }
                Metric::Gauge(v) => {
                    if typed.insert(base) {
                        out.push_str(&format!("# TYPE {base} gauge\n"));
                    }
                    out.push_str(&format!("{base}{labels} {}\n", format_f64(*v)));
                }
                Metric::Histogram(h) => {
                    if typed.insert(base) {
                        out.push_str(&format!("# TYPE {base} summary\n"));
                    }
                    for q in [0.5, 0.9, 0.99] {
                        out.push_str(&format!(
                            "{base}{{quantile=\"{q}\"}} {}\n",
                            format_f64(h.quantile(q))
                        ));
                    }
                    out.push_str(&format!("{base}_sum {}\n", format_f64(h.sum())));
                    out.push_str(&format!("{base}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// JSON object dump: `{"name":{"type":…,…},…}`, keys sorted.
    /// Non-finite values are written as `null`, so the dump is always
    /// JSON.
    pub fn to_json(&self) -> String {
        let metric_doc = |metric: &Metric| match metric {
            Metric::Counter(v) => Doc::obj().with("type", "counter").with("value", *v),
            Metric::Gauge(v) => Doc::obj().with("type", "gauge").with("value", *v),
            Metric::Histogram(h) => {
                let buckets: Vec<Doc> = h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(ub, n)| Doc::Arr(vec![ub.into(), n.into()]))
                    .collect();
                Doc::obj()
                    .with("type", "histogram")
                    .with("count", h.count())
                    .with("sum", h.sum())
                    .with("p50", h.quantile(0.5))
                    .with("p90", h.quantile(0.9))
                    .with("p99", h.quantile(0.99))
                    .with("buckets", buckets)
            }
        };
        let doc = self.metrics.iter().map(|(name, m)| (name.clone(), metric_doc(m))).collect();
        json::to_json(&Doc::Obj(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_double_from_one_microsecond() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(5e-7), 0); // 0.5 µs ≤ 1 µs
        assert_eq!(bucket_index(1.5e-6), 1); // (1 µs, 2 µs]
        assert_eq!(bucket_index(3e-6), 2); // (2 µs, 4 µs]
        assert_eq!(bucket_index(1e3), 30); // ~1000 s
        assert_eq!(bucket_index(1e12), HISTOGRAM_BUCKETS - 1); // overflow
        assert!((bucket_upper_bound(10) - 1.024e-3).abs() < 1e-12);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = Histogram::new();
        // 90 fast observations (~1 ms) and 10 slow ones (~1 s).
        for _ in 0..90 {
            h.observe(0.001);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 10.09).abs() < 1e-9);
        // p50 and p90 land in the 1 ms bucket (ub 1.024 ms), p99 in the
        // 1 s bucket (ub ~1.049 s).
        assert!((h.quantile(0.5) - 1.024e-3).abs() < 1e-12, "{}", h.quantile(0.5));
        assert!((h.quantile(0.9) - 1.024e-3).abs() < 1e-12);
        assert!((h.quantile(0.99) - 1.048576).abs() < 1e-9, "{}", h.quantile(0.99));
        assert_eq!(h.quantile(1.0), h.quantile(0.999));
        // Estimates are upper bounds: within one 2× bucket of truth.
        assert!(h.quantile(0.5) >= 0.001 && h.quantile(0.5) < 0.002);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        a.observe(0.001);
        a.observe(0.002);
        let mut b = Histogram::new();
        b.observe(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.sum() - 1.003).abs() < 1e-12);
        assert_eq!(a.min, 0.001);
        assert_eq!(a.max, 1.0);
        assert!((a.quantile(0.99) - 1.048576).abs() < 1e-9);
        // Merging preserves per-bucket counts.
        assert_eq!(a.nonzero_buckets().len(), 3);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter_add("hits", 0); // pre-register
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        r.gauge_set("depth", 4.5);
        r.observe("lat", 0.01);
        r.observe_duration("lat", Duration::from_millis(20));
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), Some(5));
        assert_eq!(snap.gauge("depth"), Some(4.5));
        assert_eq!(snap.histogram("lat").map(|h| h.count()), Some(2));
        r.reset();
        assert!(r.snapshot().metrics.is_empty());
    }

    #[test]
    fn labeled_names_render_canonically() {
        assert_eq!(labeled("failures_total", &[]), "failures_total");
        assert_eq!(
            labeled("failures_total", &[("kind", "panic")]),
            "failures_total{kind=\"panic\"}"
        );
        assert_eq!(
            labeled("x", &[("a", "1"), ("b", "2")]),
            "x{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn prometheus_dump_shape() {
        let r = Registry::new();
        r.counter_add(&labeled("fails_total", &[("kind", "panic")]), 2);
        r.counter_add(&labeled("fails_total", &[("kind", "timeout")]), 1);
        r.gauge_set("quarantine_pairs", 3.0);
        r.observe("fit_seconds", 0.001);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE fails_total counter"));
        // The TYPE header appears once even with two labeled series.
        assert_eq!(text.matches("# TYPE fails_total").count(), 1);
        assert!(text.contains("fails_total{kind=\"panic\"} 2"));
        assert!(text.contains("fails_total{kind=\"timeout\"} 1"));
        assert!(text.contains("# TYPE quarantine_pairs gauge"));
        assert!(text.contains("quarantine_pairs 3.0"));
        assert!(text.contains("# TYPE fit_seconds summary"));
        assert!(text.contains("fit_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("fit_seconds_count 1"));
    }

    #[test]
    fn json_dump_parses() {
        let r = Registry::new();
        r.counter_add("c", 1);
        r.gauge_set("g", 2.5);
        r.gauge_set("big", 1e20);
        r.observe("h", 0.003);
        r.observe("inf", f64::INFINITY);
        let doc = json::from_json(&r.snapshot().to_json()).expect("metrics dump is JSON");
        assert_eq!(doc.path("c.type").and_then(Doc::as_str), Some("counter"));
        assert_eq!(doc.path("c.value").and_then(Doc::as_i64), Some(1));
        assert_eq!(doc.path("g.value").and_then(Doc::as_f64), Some(2.5));
        assert_eq!(doc.path("big.value").and_then(Doc::as_f64), Some(1e20));
        assert_eq!(doc.path("h.type").and_then(Doc::as_str), Some("histogram"));
        assert_eq!(doc.path("h.count").and_then(Doc::as_i64), Some(1));
        assert!(doc.path("h.p50").and_then(Doc::as_f64).is_some());
        assert_eq!(doc.path("inf.sum"), Some(&Doc::Null));
        assert_eq!(doc.path("inf.count").and_then(Doc::as_i64), Some(1));
    }
}
