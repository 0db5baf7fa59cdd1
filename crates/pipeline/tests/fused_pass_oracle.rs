//! Differential oracle for the serving tier's one-run pass.
//!
//! `Pipeline::fit_and_detect(w)` is one `fit` run (each step's `fit`
//! then `produce`) that returns the `anomalies` slot it built. The
//! specification is the two-run form: `fit(w)` followed by `detect(w)`
//! (every step's `produce` again, over a fresh context). For every hub
//! and extension template the two must return bitwise-identical
//! intervals on random windows. A failing case prints its seed and
//! replays with `SINTEL_CHECK_SEED`.

use sintel_common::check::{self, Config};
use sintel_common::SintelRng;
use sintel_pipeline::hub::{template_by_name, EXTENSION_PIPELINES, PIPELINE_NAMES};
use sintel_pipeline::template::{ParamId, Template};
use sintel_primitives::HyperValue;
use sintel_timeseries::{ScoredInterval, Signal};

/// A serve-like window: a seasonal signal with noise, optional spikes
/// and a few dropped samples, on strictly increasing timestamps.
#[derive(Debug, Clone)]
struct Window {
    timestamps: Vec<i64>,
    values: Vec<f64>,
}

fn gen_window(rng: &mut SintelRng) -> Window {
    let len = rng.int_range(96, 320) as usize;
    let period = rng.uniform_range(12.0, 60.0);
    let amplitude = rng.uniform_range(0.5, 4.0);
    let noise = rng.uniform_range(0.0, 0.3);
    let mut t = rng.int_range(0, 10_000);
    let mut timestamps = Vec::with_capacity(len);
    let mut values = Vec::with_capacity(len);
    for i in 0..len {
        let mut v =
            amplitude * (std::f64::consts::TAU * i as f64 / period).sin() + rng.normal(0.0, noise);
        if rng.chance(0.02) {
            v += rng.uniform_range(-8.0, 8.0);
        }
        timestamps.push(t);
        values.push(v);
        // Mostly unit steps; the odd gap exercises the imputer.
        t += if rng.chance(0.03) { rng.int_range(2, 5) } else { 1 };
    }
    Window { timestamps, values }
}

/// Shrink by dropping samples from the tail (timestamps stay ordered).
fn shrink_window(w: &Window) -> Vec<Window> {
    [w.values.len() * 3 / 4, w.values.len().saturating_sub(8)]
        .into_iter()
        .filter(|&n| n >= 96 && n < w.values.len())
        .map(|n| Window { timestamps: w.timestamps[..n].to_vec(), values: w.values[..n].to_vec() })
        .collect()
}

/// Deep templates train one epoch at the minimum hidden width; the
/// dataflow is unchanged. Empty for templates without `epochs`.
fn cheap_lambda(template: &Template) -> Vec<(ParamId, HyperValue)> {
    template
        .hyperparameter_space()
        .expect("hub template space")
        .into_iter()
        .filter_map(|(pid, _)| match pid.name.as_str() {
            "epochs" => Some((pid, HyperValue::Int(1))),
            "hidden" => Some((pid, HyperValue::Int(4))),
            _ => None,
        })
        .collect()
}

fn bits(intervals: &[ScoredInterval]) -> Vec<(i64, i64, u64)> {
    intervals.iter().map(|iv| (iv.interval.start, iv.interval.end, iv.score.to_bits())).collect()
}

/// Check one template; returns how many cases detected something, so
/// the suites can insist the comparison is not vacuous.
fn check_template(name: &str, cases: usize) -> usize {
    let template = template_by_name(name).expect("hub template");
    let lambda = cheap_lambda(&template);
    let detected = std::cell::Cell::new(0);
    check::forall(
        &format!("{name}: fit_and_detect == fit + detect"),
        &Config::default().cases(cases),
        gen_window,
        shrink_window,
        |w| {
            let window = Signal::univariate("oracle", w.timestamps.clone(), w.values.clone())
                .map_err(|e| format!("window: {e}"))?;
            let mut spec = template.build(&lambda).map_err(|e| e.to_string())?;
            spec.fit(&window).map_err(|e| format!("fit: {e}"))?;
            let expected = spec.detect(&window).map_err(|e| format!("detect: {e}"))?;
            let mut fused = template.build(&lambda).map_err(|e| e.to_string())?;
            let got = fused.fit_and_detect(window).map_err(|e| format!("fused: {e}"))?;
            if !fused.is_fitted() {
                return Err("fit_and_detect left the pipeline unfitted".into());
            }
            if bits(&got) != bits(&expected) {
                return Err(format!("fused {:?} != two-run {:?}", bits(&got), bits(&expected)));
            }
            detected.set(detected.get() + usize::from(!got.is_empty()));
            Ok(())
        },
    );
    detected.get()
}

/// Every hub and extension template with (`true`) or without a deep
/// model's hyperparameters.
fn templates(deep: bool) -> impl Iterator<Item = &'static str> {
    PIPELINE_NAMES.iter().chain(EXTENSION_PIPELINES).copied().filter(move |name| {
        let template = template_by_name(name).expect("hub template");
        cheap_lambda(&template).is_empty() != deep
    })
}

#[test]
fn statistical_templates_match_the_two_run_oracle() {
    for name in templates(false) {
        assert!(check_template(name, 12) > 0, "{name} detected nothing in any case");
    }
}

#[test]
fn deep_templates_match_the_two_run_oracle() {
    let deep: Vec<_> = templates(true).collect();
    assert_eq!(deep.len(), 4, "{deep:?}");
    let detected: usize = deep.iter().map(|name| check_template(name, 3)).sum();
    assert!(detected > 0, "no deep template detected anything");
}
