#![warn(missing_docs)]

//! # sintel-pipeline
//!
//! Templates, pipelines and the pipeline hub (paper §2.2 and §3.2).
//!
//! * A [`Template`] is ⟨V, E, Λ⟩: an ordered list of primitive steps
//!   (the edges are the implicit context data-flow) together with the
//!   *joint hyperparameter space* Λ collected from the primitives'
//!   declarations.
//! * A [`Pipeline`] is a configured template ⟨V, E, λ⟩ — concrete
//!   primitive instances with fixed hyperparameters — exposing the
//!   `fit` / `detect` lifecycle of Figure 4a.
//! * The [`hub`] stores the named end-to-end anomaly detection pipelines
//!   of the evaluation: `lstm_dynamic_threshold`, `arima`,
//!   `lstm_autoencoder`, `dense_autoencoder`, `tadgan` and
//!   `azure_anomaly_detection`.
//!
//! Execution is instrumented per primitive ([`profile::StepProfile`]),
//! which powers the computational-performance benchmark (Figure 7a) and
//! the primitive-overhead experiment (Figure 7b).
//!
//! The [`policy`] module is the fault-isolation layer every runner
//! (benchmark, tuner, serving tier) routes executions through:
//! [`RunPolicy`] budgets, the cancel-aware watchdog [`run_guarded`],
//! and the [`FailureKind`] taxonomy. It is re-exported as
//! `sintel::policy` for framework-core callers.

pub mod hub;
pub mod pipeline;
pub mod policy;
pub mod profile;
pub mod template;

pub use hub::{available_pipelines, build_pipeline, template_by_name};
pub use pipeline::Pipeline;
pub use policy::{
    run_guarded, run_with_policy, Failure, FailureBreakdown, FailureKind, RunPolicy,
};
pub use profile::{PipelineProfile, StepProfile};
pub use template::{ParamId, StepSpec, Template};

/// Errors produced at the pipeline layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Unknown pipeline/template name.
    UnknownPipeline(String),
    /// A primitive failed.
    Step {
        /// Name of the failing primitive.
        step: String,
        /// Underlying error message.
        source: String,
    },
    /// The pipeline was used before `fit`.
    NotFitted(String),
    /// Structural problem in a template, refused before execution. Carries
    /// the static-analysis diagnostic that rejected it (`sintel-analyze`
    /// code such as `SA001`) and the offending step's primitive name.
    BadTemplate {
        /// Diagnostic code (`SA000`…`SA005`).
        code: String,
        /// Primitive name of the offending step.
        step: String,
        /// Full human-readable message.
        message: String,
    },
    /// A primitive panicked; the executor contained the unwind.
    PrimitivePanic {
        /// Name of the panicking primitive.
        step: String,
        /// The panic payload (when it was a string).
        message: String,
    },
    /// A modeling/postprocessing primitive emitted NaN or infinite values.
    NonFinite {
        /// Name of the primitive whose output failed the finiteness guard.
        step: String,
    },
    /// The contract sanitizer (cargo feature `sanitizer`) caught a
    /// primitive accessing a context slot its declared
    /// [`Contract`](sintel_primitives::Contract) omits — the runtime
    /// counterpart of the static SA0xx diagnostics.
    #[cfg(feature = "sanitizer")]
    ContractViolation {
        /// Name of the offending primitive.
        step: String,
        /// Lifecycle phase (`"fit"` / `"produce"`).
        phase: String,
        /// Access direction (`"read"` / `"write"`).
        access: String,
        /// The undeclared context slot.
        slot: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownPipeline(n) => write!(f, "unknown pipeline '{n}'"),
            PipelineError::Step { step, source } => {
                write!(f, "primitive '{step}' failed: {source}")
            }
            PipelineError::NotFitted(n) => write!(f, "pipeline '{n}' is not fitted"),
            // Display stays `bad template: {message}` — the structured
            // fields add detail without breaking message-matching callers.
            PipelineError::BadTemplate { message, .. } => write!(f, "bad template: {message}"),
            PipelineError::PrimitivePanic { step, message } => {
                write!(f, "primitive '{step}' panicked: {message}")
            }
            PipelineError::NonFinite { step } => {
                write!(f, "primitive '{step}' produced non-finite output")
            }
            #[cfg(feature = "sanitizer")]
            PipelineError::ContractViolation { step, phase, access, slot } => {
                write!(
                    f,
                    "[SA009] contract violation: primitive '{step}' {access}s \
                     undeclared slot '{slot}' during {phase}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, PipelineError>;
