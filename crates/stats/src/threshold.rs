//! Nonparametric dynamic error thresholding (Hundman et al., KDD 2018).
//!
//! The `find_anomalies` postprocessing primitive turns a point-wise error
//! series into anomalous index ranges:
//!
//! 1. smooth the errors (EWMA);
//! 2. per evaluation window, choose the threshold `ε = µ + z·σ` whose
//!    removal most reduces the mean/std of the remaining errors relative
//!    to the number of points and contiguous sequences it prunes;
//! 3. group above-threshold indices into sequences;
//! 4. prune sequences whose maximum error does not "step down" enough
//!    relative to the next one (minimum percent drop `p`).
//!
//! A fixed `k·σ` rule ([`fixed_threshold`]) is included as the ablation
//! baseline (DESIGN.md §4).

use crate::{Result, StatsError};

/// A detected anomalous index range with a severity score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalySpan {
    /// First anomalous sample index (inclusive).
    pub start: usize,
    /// Last anomalous sample index (inclusive).
    pub end: usize,
    /// Severity: how far above the threshold the worst error was,
    /// normalised by µ + σ.
    pub score: f64,
}

/// Parameters of [`dynamic_threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdParams {
    /// EWMA smoothing factor applied to the error series (0 < α <= 1).
    pub smoothing_alpha: f64,
    /// Candidate z values are swept over `[z_min, z_max]`.
    pub z_min: f64,
    /// Upper end of the z sweep.
    pub z_max: f64,
    /// z sweep granularity.
    pub z_step: f64,
    /// Minimum relative drop between consecutive sequence maxima during
    /// pruning (Hundman's `p`, typically 0.1–0.13). 0 disables pruning.
    pub min_percent_drop: f64,
    /// Evaluation window length; the error series is processed in
    /// consecutive windows of this many samples (the threshold is local,
    /// which is what makes it *dynamic*). 0 means one global window.
    pub window_size: usize,
}

impl Default for ThresholdParams {
    fn default() -> Self {
        Self {
            smoothing_alpha: 0.2,
            z_min: 2.0,
            z_max: 10.0,
            z_step: 0.5,
            min_percent_drop: 0.1,
            window_size: 0,
        }
    }
}

/// Reject parameter combinations that would make the sweep meaningless
/// or non-terminating (a non-positive `z_step` loops forever).
fn validate_params(params: &ThresholdParams) -> Result<()> {
    if !(params.smoothing_alpha > 0.0 && params.smoothing_alpha <= 1.0) {
        return Err(StatsError::InvalidParameter(format!(
            "smoothing_alpha={} not in (0, 1]",
            params.smoothing_alpha
        )));
    }
    if !params.z_step.is_finite() || params.z_step <= 0.0 {
        return Err(StatsError::InvalidParameter(format!(
            "z_step={} must be positive and finite (the z sweep would never terminate)",
            params.z_step
        )));
    }
    if !params.z_min.is_finite() || !params.z_max.is_finite() || params.z_min > params.z_max {
        return Err(StatsError::InvalidParameter(format!(
            "z range [{}, {}] is not a finite ascending interval",
            params.z_min, params.z_max
        )));
    }
    if !params.min_percent_drop.is_finite() || params.min_percent_drop < 0.0 {
        return Err(StatsError::InvalidParameter(format!(
            "min_percent_drop={} must be finite and >= 0",
            params.min_percent_drop
        )));
    }
    Ok(())
}

/// Detect anomalous spans in an error series with a *fixed* `µ + k·σ`
/// threshold — the simple baseline the dynamic method is compared
/// against in the ablation bench.
pub fn fixed_threshold(errors: &[f64], k: f64) -> Result<Vec<AnomalySpan>> {
    if !k.is_finite() || k < 0.0 {
        return Err(StatsError::InvalidParameter(format!(
            "k={k} must be a finite non-negative sigma multiplier"
        )));
    }
    if errors.is_empty() {
        return Ok(Vec::new());
    }
    let mu = sintel_common::mean(errors);
    let sigma = sintel_common::stddev(errors);
    let eps = mu + k * sigma;
    Ok(group_spans(errors, eps, mu, sigma))
}

/// Detect anomalous spans with the dynamic threshold described above.
pub fn dynamic_threshold(
    errors: &[f64],
    params: &ThresholdParams,
) -> Result<Vec<AnomalySpan>> {
    validate_params(params)?;
    if errors.is_empty() {
        return Ok(Vec::new());
    }
    let smoothed = sintel_common::ewma(errors, params.smoothing_alpha);
    let win = if params.window_size == 0 { smoothed.len() } else { params.window_size };

    let mut spans = Vec::new();
    let mut start = 0usize;
    while start < smoothed.len() {
        let end = (start + win).min(smoothed.len());
        let window = &smoothed[start..end];
        for mut span in window_spans(window, params) {
            span.start += start;
            span.end += start;
            spans.push(span);
        }
        start = end;
    }
    // Merge spans that touch across window borders.
    merge_adjacent(&mut spans);
    Ok(spans)
}

fn window_spans(errors: &[f64], params: &ThresholdParams) -> Vec<AnomalySpan> {
    let mu = sintel_common::mean(errors);
    let sigma = sintel_common::stddev(errors);
    if sigma < 1e-12 {
        return Vec::new(); // perfectly flat errors: nothing stands out
    }

    // Sweep z, score each candidate threshold.
    let mut best: Option<(f64, f64)> = None; // (score, eps)
    // One buffer for every candidate's below-threshold errors.
    let mut below = Vec::with_capacity(errors.len());
    let mut z = params.z_min;
    while z <= params.z_max + 1e-9 {
        let eps = mu + z * sigma;
        below.clear();
        below.extend(errors.iter().copied().filter(|&e| e <= eps));
        let n_above = errors.len() - below.len();
        if n_above == 0 {
            z += params.z_step;
            continue;
        }
        let seqs = count_sequences(errors, eps);
        let delta_mean = mu - sintel_common::mean(&below);
        let delta_std = sigma - sintel_common::stddev(&below);
        let score = (delta_mean / mu.abs().max(1e-12) + delta_std / sigma)
            / (n_above as f64 + (seqs * seqs) as f64);
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, eps));
        }
        z += params.z_step;
    }
    let Some((_, eps)) = best else {
        return Vec::new();
    };

    let mut spans = group_spans(errors, eps, mu, sigma);
    if params.min_percent_drop > 0.0 {
        spans = prune(spans, errors, eps, params.min_percent_drop, mu, sigma);
    }
    spans
}

/// Group consecutive above-threshold indices into spans.
fn group_spans(errors: &[f64], eps: f64, mu: f64, sigma: f64) -> Vec<AnomalySpan> {
    let denom = (mu + sigma).abs().max(1e-12);
    let mut spans = Vec::new();
    let mut cur: Option<(usize, usize, f64)> = None;
    for (i, &e) in errors.iter().enumerate() {
        if e > eps {
            cur = match cur {
                Some((s, _, m)) => Some((s, i, m.max(e))),
                None => Some((i, i, e)),
            };
        } else if let Some((s, t, m)) = cur.take() {
            spans.push(AnomalySpan { start: s, end: t, score: (m - eps).max(0.0) / denom });
        }
    }
    if let Some((s, t, m)) = cur {
        spans.push(AnomalySpan { start: s, end: t, score: (m - eps).max(0.0) / denom });
    }
    spans
}

fn count_sequences(errors: &[f64], eps: f64) -> usize {
    let mut seqs = 0usize;
    let mut in_seq = false;
    for &e in errors {
        if e > eps {
            if !in_seq {
                seqs += 1;
                in_seq = true;
            }
        } else {
            in_seq = false;
        }
    }
    seqs
}

/// Hundman's pruning: sort sequence maxima descending, append ε as a
/// floor, walk the relative drops; sequences after the last drop
/// exceeding `p` are discarded.
fn prune(
    spans: Vec<AnomalySpan>,
    errors: &[f64],
    eps: f64,
    p: f64,
    _mu: f64,
    _sigma: f64,
) -> Vec<AnomalySpan> {
    if spans.is_empty() {
        return spans;
    }
    let mut maxima: Vec<(usize, f64)> = spans
        .iter()
        .enumerate()
        .map(|(k, s)| {
            // Spans are derived from `errors` by group_spans, so the range
            // is always valid; the checked access keeps a malformed span
            // from panicking instead of scoring as "nothing to prune".
            let m = errors
                .get(s.start..=s.end)
                .map_or(f64::NEG_INFINITY, |w| {
                    w.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                });
            (k, m)
        })
        .collect();
    maxima.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Relative drops between consecutive maxima, with eps as the floor.
    // Everything above (and including) the last significant drop is kept;
    // if no drop is significant, nothing is pruned.
    let mut last_significant = 0usize;
    for i in 0..maxima.len() {
        let next = if i + 1 < maxima.len() { maxima[i + 1].1 } else { eps };
        let drop = (maxima[i].1 - next) / maxima[i].1.abs().max(1e-12);
        if drop > p {
            last_significant = i + 1;
        }
    }
    let keep_n = if last_significant == 0 { maxima.len() } else { last_significant };
    let keep: std::collections::HashSet<usize> =
        maxima.iter().take(keep_n).map(|&(k, _)| k).collect();
    spans
        .into_iter()
        .enumerate()
        .filter(|(k, _)| keep.contains(k))
        .map(|(_, s)| s)
        .collect()
}

fn merge_adjacent(spans: &mut Vec<AnomalySpan>) {
    spans.sort_by_key(|s| s.start);
    let mut out: Vec<AnomalySpan> = Vec::with_capacity(spans.len());
    for s in spans.drain(..) {
        match out.last_mut() {
            Some(last) if s.start <= last.end + 1 => {
                last.end = last.end.max(s.end);
                last.score = last.score.max(s.score);
            }
            _ => out.push(s),
        }
    }
    *spans = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    fn noisy_errors(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SintelRng::seed_from_u64(seed);
        (0..n).map(|_| rng.normal(1.0, 0.1).abs()).collect()
    }

    #[test]
    fn flat_errors_produce_nothing() {
        assert!(dynamic_threshold(&[0.5; 100], &ThresholdParams::default()).unwrap().is_empty());
        assert!(dynamic_threshold(&[], &ThresholdParams::default()).unwrap().is_empty());
    }

    #[test]
    fn detects_single_burst() {
        let mut errors = noisy_errors(500, 1);
        for e in &mut errors[200..215] {
            *e += 5.0;
        }
        let spans = dynamic_threshold(&errors, &ThresholdParams::default()).unwrap();
        assert_eq!(spans.len(), 1, "{spans:?}");
        let s = spans[0];
        assert!(s.start >= 195 && s.start <= 205, "start {}", s.start);
        assert!(s.end >= 210 && s.end <= 225, "end {}", s.end);
        assert!(s.score > 0.0);
    }

    #[test]
    fn detects_two_separated_bursts() {
        let mut errors = noisy_errors(800, 2);
        for e in &mut errors[100..110] {
            *e += 6.0;
        }
        for e in &mut errors[600..620] {
            *e += 4.0;
        }
        // Windowed evaluation is what makes the threshold *dynamic*: each
        // window picks its own ε, so bursts of different magnitude are
        // both found.
        let params = ThresholdParams { window_size: 400, ..Default::default() };
        let spans = dynamic_threshold(&errors, &params).unwrap();
        assert!(spans.len() >= 2, "{spans:?}");
        assert!(spans[0].start < 150 && spans.last().unwrap().start > 550);
    }

    #[test]
    fn pruning_drops_marginal_sequences() {
        let mut errors = noisy_errors(600, 3);
        // One dominant anomaly and one barely-above-noise bump.
        for e in &mut errors[100..110] {
            *e += 8.0;
        }
        for e in &mut errors[400..405] {
            *e += 0.45;
        }
        let strict = ThresholdParams { min_percent_drop: 0.35, ..Default::default() };
        let spans = dynamic_threshold(&errors, &strict).unwrap();
        // The dominant burst survives; the bump is pruned (or never
        // crossed the threshold).
        assert!(spans.iter().any(|s| s.start < 150));
        assert!(spans.iter().all(|s| s.start < 150 || s.score > 0.0));
        let lenient = ThresholdParams { min_percent_drop: 0.0, ..Default::default() };
        let spans_all = dynamic_threshold(&errors, &lenient).unwrap();
        assert!(spans_all.len() >= spans.len());
    }

    #[test]
    fn fixed_threshold_known_case() {
        let mut errors = vec![1.0; 100];
        errors[50] = 10.0;
        let spans = fixed_threshold(&errors, 3.0).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (50, 50));
    }

    #[test]
    fn fixed_threshold_empty_and_flat() {
        assert!(fixed_threshold(&[], 3.0).unwrap().is_empty());
        assert!(fixed_threshold(&[2.0; 50], 3.0).unwrap().is_empty());
    }

    #[test]
    fn windowed_processing_merges_across_borders() {
        let mut errors = noisy_errors(400, 4);
        for e in &mut errors[195..205] {
            *e += 6.0;
        }
        // Window border at 200 cuts the burst in half.
        let params = ThresholdParams { window_size: 200, ..Default::default() };
        let spans = dynamic_threshold(&errors, &params).unwrap();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert!(spans[0].start <= 197 && spans[0].end >= 202);
    }

    #[test]
    fn scores_rank_severity() {
        let mut errors = noisy_errors(600, 5);
        for e in &mut errors[100..105] {
            *e += 10.0;
        }
        for e in &mut errors[400..405] {
            *e += 3.0;
        }
        let params = ThresholdParams {
            min_percent_drop: 0.0,
            window_size: 300,
            ..Default::default()
        };
        let spans = dynamic_threshold(&errors, &params).unwrap();
        let big = spans.iter().find(|s| s.start < 150).expect("big burst found");
        let small = spans.iter().find(|s| s.start > 350).expect("small burst found");
        assert!(big.score > small.score);
    }

    #[test]
    fn bad_parameters_are_typed_errors_not_hangs() {
        let errors = noisy_errors(50, 7);
        // A non-positive z_step used to spin the sweep loop forever.
        let frozen = ThresholdParams { z_step: 0.0, ..Default::default() };
        assert!(matches!(
            dynamic_threshold(&errors, &frozen),
            Err(StatsError::InvalidParameter(_))
        ));
        let negative = ThresholdParams { z_step: -0.5, ..Default::default() };
        assert!(dynamic_threshold(&errors, &negative).is_err());
        let bad_alpha = ThresholdParams { smoothing_alpha: 0.0, ..Default::default() };
        assert!(dynamic_threshold(&errors, &bad_alpha).is_err());
        let inverted = ThresholdParams { z_min: 5.0, z_max: 2.0, ..Default::default() };
        assert!(dynamic_threshold(&errors, &inverted).is_err());
        let nan_drop =
            ThresholdParams { min_percent_drop: f64::NAN, ..Default::default() };
        assert!(dynamic_threshold(&errors, &nan_drop).is_err());
        assert!(matches!(
            fixed_threshold(&errors, f64::INFINITY),
            Err(StatsError::InvalidParameter(_))
        ));
        assert!(fixed_threshold(&errors, -1.0).is_err());
    }

    #[test]
    fn group_spans_handles_trailing_run() {
        let errors = [0.0, 0.0, 5.0, 5.0];
        let spans = group_spans(&errors, 1.0, 0.5, 0.5);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start, spans[0].end), (2, 3));
    }
}
