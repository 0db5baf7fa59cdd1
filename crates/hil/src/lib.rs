#![warn(missing_docs)]

//! # sintel-hil
//!
//! The human-in-the-loop subsystem (paper §2.4, §3.6, Figure 1):
//!
//! * [`event`] — the event lifecycle: detected anomalies become
//!   reviewable [`event::Event`]s that experts *confirm*, *modify*,
//!   *remove*, *create*, *tag* and *discuss*; every action is persisted
//!   to the knowledge base (`sintel-store`).
//! * [`annotator`] — the [`annotator::Annotator`] interface plus
//!   [`annotator::SimulatedExpert`], the scripted ground-truth-aware
//!   expert used by the feedback and study experiments (the paper's own
//!   evaluation also simulates human actions, §4).
//! * [`semi`] — the semi-/supervised detection pipeline of Figure 2b: a
//!   feature-based window classifier trained on annotated (anomalous /
//!   normal) sequences.
//! * [`queue`] — review-queue orderings (severity-first triage,
//!   uncertainty-first active learning, FIFO).
//! * [`feedback`] — the annotation-driven retraining loop of Figure 8a:
//!   warm-start from an unsupervised pipeline, annotate k events per
//!   iteration, retrain, track test F1.
//! * [`study`] — the real-world use-case simulation behind Figure 8b
//!   (16 satellite signals, 6 experts, 110 tagged events).
//! * [`viz`] — an ASCII multi-aggregation signal viewer standing in for
//!   the MTV web application (DESIGN.md §2).

pub mod annotator;
pub mod event;
pub mod feedback;
pub mod queue;
pub mod semi;
pub mod study;
pub mod viz;

pub use annotator::{Annotator, SimulatedExpert};
pub use event::{AnnotationAction, Event, EventStatus};
pub use feedback::{FeedbackLoop, FeedbackPoint, RetrainPolicy};
pub use queue::{ReviewQueue, ReviewStrategy};
pub use semi::SemiSupervisedDetector;

/// Errors produced by the HIL subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum HilError {
    /// Underlying pipeline failure.
    Pipeline(String),
    /// Underlying store failure.
    Store(String),
    /// Invalid configuration for a loop / study.
    Invalid(String),
}

impl std::fmt::Display for HilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HilError::Pipeline(m) => write!(f, "pipeline failure: {m}"),
            HilError::Store(m) => write!(f, "store failure: {m}"),
            HilError::Invalid(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for HilError {}

impl From<sintel_store::StoreError> for HilError {
    fn from(e: sintel_store::StoreError) -> Self {
        HilError::Store(e.to_string())
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, HilError>;
