//! The [`Primitive`] trait and its metadata.

use crate::context::{Context, Value};
use crate::contract::Contract;
use crate::hyper::{HyperSpec, HyperValue};
use crate::{PrimitiveError, Result};

/// Which engine of the framework a primitive belongs to (paper Table 1 /
/// §2.2): every pipeline is a preprocessing → modeling → postprocessing
/// chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Data transformation before modeling (aggregate, impute, scale…).
    Preprocessing,
    /// Signal prediction / reconstruction.
    Modeling,
    /// Error calculation and anomaly extraction.
    Postprocessing,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Preprocessing => write!(f, "preprocessing"),
            Engine::Modeling => write!(f, "modeling"),
            Engine::Postprocessing => write!(f, "postprocessing"),
        }
    }
}

/// Primitive metadata: the annotations the paper attaches to every
/// primitive (name, documentation, engine category, declared
/// hyperparameters, and the contract over the context slots it
/// consumes and produces).
///
/// The built-in primitives build theirs once per type, in a `OnceLock`
/// on first construction, and every instance borrows it, so building a
/// pipeline allocates none of these tables.
#[derive(Debug, Clone)]
pub struct PrimitiveMeta {
    /// Registry name (e.g. `"time_segments_aggregate"`).
    pub name: String,
    /// Engine category.
    pub engine: Engine,
    /// One-line documentation string.
    pub description: String,
    /// Declared hyperparameters.
    pub hyperparams: Vec<HyperSpec>,
    /// Static dataflow contract (per-phase reads/writes) consumed by
    /// `sintel-analyze`. Derived from the `inputs`/`outputs` slots given
    /// to [`PrimitiveMeta::new`], refined via the builder methods where
    /// dataflow is conditional.
    pub contract: Contract,
}

impl PrimitiveMeta {
    /// Construct metadata.
    pub fn new(
        name: &str,
        engine: Engine,
        description: &str,
        inputs: &[&str],
        outputs: &[&str],
        hyperparams: Vec<HyperSpec>,
    ) -> Self {
        Self {
            name: name.to_string(),
            engine,
            description: description.to_string(),
            hyperparams,
            contract: Contract::from_io(inputs, outputs),
        }
    }

    /// Contract refinement: `slot` is read opportunistically, not required.
    pub fn optional_read(mut self, slot: &str) -> Self {
        self.contract = self.contract.optional_read(slot);
        self
    }

    /// Contract refinement: `slot` is read opportunistically during
    /// `fit`.
    pub fn optional_fit_read(mut self, slot: &str) -> Self {
        self.contract = self.contract.optional_fit_read(slot);
        self
    }

    /// Contract refinement: `slot` is consumed during `fit` only.
    pub fn fit_only_read(mut self, slot: &str) -> Self {
        self.contract = self.contract.fit_only_read(slot);
        self
    }

    /// Contract refinement: `slot` is an auxiliary (non-primary) output.
    pub fn auxiliary_write(mut self, slot: &str) -> Self {
        self.contract = self.contract.auxiliary_write(slot);
        self
    }

    /// Look up a hyperparameter spec by name.
    pub fn hyperparam(&self, name: &str) -> Option<&HyperSpec> {
        self.hyperparams.iter().find(|h| h.name == name)
    }

    /// Validate a value against the declared range.
    pub fn validate_hyperparam(&self, name: &str, value: &HyperValue) -> Result<()> {
        let spec = self.hyperparam(name).ok_or_else(|| {
            PrimitiveError::BadHyperparameter(format!(
                "'{}' has no hyperparameter '{name}'",
                self.name
            ))
        })?;
        if !spec.range.contains(value) {
            return Err(PrimitiveError::BadHyperparameter(format!(
                "value {value:?} out of range for '{}.{name}'",
                self.name
            )));
        }
        Ok(())
    }
}

/// A reusable pipeline building block (paper §2.2).
///
/// Lifecycle: construct via the [`crate::registry`], optionally override
/// hyperparameters, [`Primitive::fit`] on training context, then
/// [`Primitive::produce`] on (possibly different) detection context.
/// Stateless primitives implement only `produce`. These two methods are
/// the whole lifecycle: a streaming pass is `fit` then `produce` over
/// its window, and a pipeline kept fitted between passes runs `produce`
/// alone.
pub trait Primitive: Send {
    /// Metadata (name, engine, hyperparameters…).
    fn meta(&self) -> &PrimitiveMeta;

    /// Override one hyperparameter. Implementations must validate via
    /// [`PrimitiveMeta::validate_hyperparam`] (or stricter).
    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()>;

    /// Learn state from the training context (no-op by default).
    fn fit(&mut self, _ctx: &Context) -> Result<()> {
        Ok(())
    }

    /// Compute outputs from the context. Returns `(slot, value)` pairs
    /// that the executor writes back into the context.
    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::HyperSpec;

    #[test]
    fn engine_display() {
        assert_eq!(Engine::Preprocessing.to_string(), "preprocessing");
        assert_eq!(Engine::Modeling.to_string(), "modeling");
        assert_eq!(Engine::Postprocessing.to_string(), "postprocessing");
    }

    #[test]
    fn meta_hyperparam_lookup_and_validation() {
        let meta = PrimitiveMeta::new(
            "demo",
            Engine::Preprocessing,
            "a demo primitive",
            &["signal"],
            &["signal"],
            vec![HyperSpec::int("k", 1, 5, 2)],
        );
        assert!(meta.hyperparam("k").is_some());
        assert!(meta.hyperparam("missing").is_none());
        assert!(meta.validate_hyperparam("k", &HyperValue::Int(3)).is_ok());
        assert!(meta.validate_hyperparam("k", &HyperValue::Int(9)).is_err());
        assert!(meta.validate_hyperparam("zzz", &HyperValue::Int(1)).is_err());
    }
}
