//! Templates: ⟨V, E, Λ⟩ (paper §3.2).

use sintel_primitives::{build_primitive, HyperSpec, HyperValue};

use crate::pipeline::Pipeline;
use crate::{PipelineError, Result};

/// One step of a template: a primitive name plus fixed hyperparameter
/// overrides applied at build time.
#[derive(Debug, Clone)]
pub struct StepSpec {
    /// Registry name of the primitive.
    pub primitive: String,
    /// Fixed hyperparameter overrides `(name, value)`.
    pub overrides: Vec<(String, HyperValue)>,
}

impl StepSpec {
    /// A step with no overrides.
    pub fn plain(primitive: &str) -> Self {
        Self { primitive: primitive.to_string(), overrides: Vec::new() }
    }

    /// A step with overrides.
    pub fn with(primitive: &str, overrides: &[(&str, HyperValue)]) -> Self {
        Self {
            primitive: primitive.to_string(),
            overrides: overrides.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        }
    }
}

/// Identifies one hyperparameter within a template's joint space Λ:
/// `(step index, hyperparameter name)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamId {
    /// Step index within the template.
    pub step: usize,
    /// Hyperparameter name within the primitive.
    pub name: String,
}

impl std::fmt::Display for ParamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step{}#{}", self.step, self.name)
    }
}

/// A pipeline template: named, ordered primitive steps.
///
/// ```
/// use sintel_pipeline::Template;
///
/// let template = Template::from_names(
///     "my_detector",
///     &["time_segments_aggregate", "SimpleImputer", "MinMaxScaler",
///       "arima", "regression_errors", "find_anomalies"],
/// );
/// // The joint tunable hyperparameter space Λ is collected from the
/// // primitives' declarations.
/// assert!(!template.hyperparameter_space().unwrap().is_empty());
/// let pipeline = template.build_default().unwrap();
/// assert_eq!(pipeline.name(), "my_detector");
/// ```
#[derive(Debug, Clone)]
pub struct Template {
    /// Template name (doubles as pipeline name when built).
    pub name: String,
    /// Ordered steps.
    pub steps: Vec<StepSpec>,
}

impl Template {
    /// Create a template from plain primitive names.
    pub fn from_names(name: &str, primitives: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            steps: primitives.iter().map(|p| StepSpec::plain(p)).collect(),
        }
    }

    /// The joint *tunable* hyperparameter space Λ: every tunable spec of
    /// every step, addressed by [`ParamId`]. Fixed overrides and
    /// `tunable = false` specs are excluded.
    pub fn hyperparameter_space(&self) -> Result<Vec<(ParamId, HyperSpec)>> {
        let mut space = Vec::new();
        for (idx, step) in self.steps.iter().enumerate() {
            let prim = build_primitive(&step.primitive).map_err(|e| {
                PipelineError::BadTemplate {
                    code: "SA000".to_string(),
                    step: step.primitive.clone(),
                    message: e.to_string(),
                }
            })?;
            for spec in &prim.meta().hyperparams {
                let overridden = step.overrides.iter().any(|(n, _)| n == &spec.name);
                if spec.tunable && !overridden {
                    space.push((
                        ParamId { step: idx, name: spec.name.clone() },
                        spec.clone(),
                    ));
                }
            }
        }
        Ok(space)
    }

    /// Build the pipeline with the template's fixed overrides plus the
    /// extra configuration λ (typically proposed by the tuner).
    pub fn build(&self, lambda: &[(ParamId, HyperValue)]) -> Result<Pipeline> {
        let mut steps = Vec::with_capacity(self.steps.len());
        for (idx, spec) in self.steps.iter().enumerate() {
            let mut prim = build_primitive(&spec.primitive).map_err(|e| {
                PipelineError::BadTemplate {
                    code: "SA000".to_string(),
                    step: spec.primitive.clone(),
                    message: e.to_string(),
                }
            })?;
            // A rejected value is the analyzer's SA003 (out of domain).
            let overrides = spec.overrides.iter().map(|(name, value)| (name.as_str(), value));
            let tuned = lambda.iter().filter(|(pid, _)| pid.step == idx);
            for (name, value) in overrides.chain(tuned.map(|(pid, v)| (pid.name.as_str(), v))) {
                prim.set_hyperparam(name, value.clone()).map_err(|e| {
                    PipelineError::BadTemplate {
                        code: "SA003".to_string(),
                        step: spec.primitive.clone(),
                        message: e.to_string(),
                    }
                })?;
            }
            steps.push(prim);
        }
        Ok(Pipeline::new(&self.name, steps))
    }

    /// Build with defaults only.
    pub fn build_default(&self) -> Result<Pipeline> {
        self.build(&[])
    }

    /// Statically analyse the template (fixed overrides only) against the
    /// primitives' declared contracts. Pure — builds no runtime state.
    pub fn analyze(&self) -> sintel_analyze::Report {
        self.analyze_with(&[])
    }

    /// Statically analyse the template with the extra configuration λ
    /// merged over the fixed overrides (λ wins on conflicts) — exactly
    /// the assignment order [`Template::build`] applies at runtime.
    pub fn analyze_with(&self, lambda: &[(ParamId, HyperValue)]) -> sintel_analyze::Report {
        self.analyze_for_input_len(lambda, None)
    }

    /// [`Template::analyze_with`] plus a known bound on the input length
    /// (a serve window, a dataset's sample count): the shape pass then
    /// also rejects configurations whose output is statically empty
    /// (SA007) — a window requirement no feasible input can satisfy.
    pub fn analyze_for_input_len(
        &self,
        lambda: &[(ParamId, HyperValue)],
        input_len: Option<usize>,
    ) -> sintel_analyze::Report {
        sintel_analyze::analyze_pipeline_for_len(&self.name, &self.step_configs(lambda), input_len)
    }

    /// Minimum number of (post-preprocessing) input samples for which
    /// every step produces non-empty output, from the analyzer's symbolic
    /// shape algebra. `None` when a primitive is unknown or no finite
    /// requirement is derivable.
    pub fn required_input_len(&self) -> Option<usize> {
        sintel_analyze::required_input_len(&self.step_configs(&[]))
    }

    /// Static flop/byte estimate for running the template (fixed
    /// overrides only) on `input_len` samples — the analyzer's cost
    /// model. `None` when a primitive is unknown.
    pub fn estimated_cost(&self, input_len: usize) -> Option<sintel_analyze::CostEstimate> {
        self.estimated_cost_with(&[], input_len)
    }

    /// [`Template::estimated_cost`] with a candidate λ merged over the
    /// fixed overrides — what the tuner's cost gate prices before
    /// deciding whether a proposal is worth executing.
    pub fn estimated_cost_with(
        &self,
        lambda: &[(ParamId, HyperValue)],
        input_len: usize,
    ) -> Option<sintel_analyze::CostEstimate> {
        sintel_analyze::estimate_steps(&self.step_configs(lambda), input_len)
    }

    /// The analyzer's view of the steps: fixed overrides merged with λ
    /// (λ wins), mirroring [`Template::build`]'s assignment order.
    fn step_configs(&self, lambda: &[(ParamId, HyperValue)]) -> Vec<sintel_analyze::StepConfig> {
        self.steps
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let mut hypers: Vec<(String, HyperValue)> = spec
                    .overrides
                    .iter()
                    .filter(|(name, _)| {
                        !lambda.iter().any(|(pid, _)| pid.step == idx && &pid.name == name)
                    })
                    .cloned()
                    .collect();
                for (pid, value) in lambda {
                    if pid.step == idx {
                        hypers.push((pid.name.clone(), value.clone()));
                    }
                }
                sintel_analyze::StepConfig::with(&spec.primitive, hypers)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_template() -> Template {
        Template {
            name: "demo".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::with("rolling_window_sequences", &[("window_size", HyperValue::Int(8))]),
            ],
        }
    }

    #[test]
    fn space_excludes_fixed_and_overridden() {
        let t = demo_template();
        let space = t.hyperparameter_space().unwrap();
        // window_size is overridden -> excluded; step is fixed -> excluded.
        assert!(!space.iter().any(|(p, _)| p.name == "window_size"));
        assert!(!space.iter().any(|(p, _)| p.name == "step"));
        // method (tsa) and strategy (imputer) are tunable.
        assert!(space.iter().any(|(p, _)| p.step == 0 && p.name == "method"));
        assert!(space.iter().any(|(p, _)| p.step == 1 && p.name == "strategy"));
    }

    #[test]
    fn build_applies_overrides_and_lambda() {
        let t = demo_template();
        let lambda = vec![(
            ParamId { step: 1, name: "strategy".into() },
            HyperValue::Text("zero".into()),
        )];
        assert!(t.build(&lambda).is_ok());
        // Out-of-range lambda fails loudly.
        let bad = vec![(
            ParamId { step: 1, name: "strategy".into() },
            HyperValue::Text("bogus".into()),
        )];
        assert!(matches!(
            t.build(&bad),
            Err(PipelineError::BadTemplate { code, .. }) if code == "SA003"
        ));
    }

    #[test]
    fn unknown_primitive_in_template() {
        let t = Template::from_names("broken", &["nonexistent_primitive"]);
        match t.build_default() {
            Err(PipelineError::BadTemplate { code, step, message }) => {
                assert_eq!(code, "SA000");
                assert_eq!(step, "nonexistent_primitive");
                assert!(message.contains("unknown primitive"));
            }
            other => panic!("expected BadTemplate, got {other:?}"),
        }
        assert!(t.hyperparameter_space().is_err());
    }

    #[test]
    fn analyze_with_merges_lambda_over_overrides() {
        let t = demo_template();
        // The override (window_size = 8) is valid -> clean.
        assert!(!t.analyze().has_errors());
        // λ replaces the override with an out-of-domain value -> SA003.
        let lambda = vec![(
            ParamId { step: 2, name: "window_size".into() },
            HyperValue::Int(100_000),
        )];
        let report = t.analyze_with(&lambda);
        assert!(report.has_errors());
        assert!(report.errors().any(|d| d.code == sintel_analyze::Code::HyperOutOfDomain));
    }

    #[test]
    fn param_id_display() {
        let pid = ParamId { step: 2, name: "alpha".into() };
        assert_eq!(pid.to_string(), "step2#alpha");
    }
}
