#![warn(missing_docs)]

//! # sintel-analyze
//!
//! Static dataflow/contract checker for pipeline templates.
//!
//! The paper's template abstraction ⟨V, E, Λ⟩ (§2.2, Fig. 4a) wires
//! primitives through an *implicit* context dataflow: each step reads
//! named slots left behind by earlier steps and writes its own. A
//! mis-wired template — a step consuming a slot nobody produced, an
//! out-of-domain hyperparameter, engines out of order — historically only
//! surfaced as a runtime failure deep inside `fit`, wasting whole
//! benchmark rows and tuner trials.
//!
//! This crate rejects such pipelines *before* execution. Every primitive
//! declares a static [`Contract`](sintel_primitives::Contract) (context
//! slots consumed/produced per phase, value kinds, hyperparameter
//! domains); [`analyze_pipeline`] walks a step list against those
//! contracts and emits coded diagnostics:
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | SA000 | Error    | unknown primitive name (aborts the walk) |
//! | SA001 | Error    | dangling context read — required input never produced |
//! | SA002 | Warn     | shadowed or unused primary output |
//! | SA003 | Error    | hyperparameter unknown or out of declared domain |
//! | SA004 | Error    | phase-ordering violation (engine rank decreases) |
//! | SA005 | Error    | window/aggregation inconsistency |
//! | SA006 | Error    | static shape mismatch between aligned inputs |
//! | SA007 | Error    | statically-empty output under the input-length bound |
//! | SA008 | Warn/Error | fallback template not strictly cheaper than primary |
//! | SA009 | Error    | runtime contract violation (sanitizer finding) |
//! | SA010 | Error    | serve configuration field outside its domain |
//! | SA011 | Error    | reserved or duplicate tenant name |
//! | SA012 | Error    | fallback incompatible with the serve window |
//! | SA013 | Warn/Error | load shedding can never / must always fire |
//! | SA014 | Error    | an open circuit breaker can never close |
//!
//! SA000–SA007 come from the per-template walk ([`analyze_pipeline`],
//! with SA007 requiring the input-length bound of
//! [`analyze_pipeline_for_len`]); the `shape` pass propagates symbolic
//! sequence lengths through per-primitive transfer functions, and the
//! `cost` model rolls up per-step flop/byte estimates. SA008 and
//! SA010–SA014 are deployment-level diagnostics emitted by
//! `sintel_serve::analyze_deployment` through the same [`Report`] path;
//! SA009 is produced at runtime by `sintel-pipeline`'s contract sanitizer
//! (a debug/test feature), closing the loop between declared contracts
//! and actual slot access.
//!
//! Severity policy: **Error** diagnostics refuse to build (enforced by
//! `sintel-pipeline`'s hub and `sintel-serve`'s engine), **Warn**
//! diagnostics are logged through `sintel-obs` and reported but never
//! block. Analysis is pure — it never constructs runtime state beyond
//! primitive metadata, so enabling it cannot change detection results on
//! valid pipelines.

mod checks;
mod cost;
mod diagnostics;
mod shape;

pub use checks::{analyze_pipeline, analyze_pipeline_for_len, StepConfig};
pub use cost::{estimate_steps, CostEstimate, NOMINAL_INPUT_LEN};
pub use diagnostics::{Code, Diagnostic, Report, Severity};
pub use shape::{required_input_len, LenExpr};
