//! Static dataflow contracts.
//!
//! Every primitive declares which context slots it consumes and produces
//! per lifecycle phase (`fit` / `produce`) and what kind of value each
//! slot carries. The declarations are derived from the metadata's
//! `inputs` / `outputs` lists and refined where a primitive's dataflow is
//! conditional (optional reads, fit-only reads, auxiliary outputs).
//!
//! `sintel-analyze` walks these contracts over a template's step list to
//! reject mis-wired pipelines *before* execution — see the `SA0xx`
//! diagnostic codes documented there and in DESIGN.md §4d.

/// The kind of value a context slot carries, inferred from the slot
/// naming convention shared by all primitives (see `context::Value`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// A full (multi-channel) signal with timestamps.
    Signal,
    /// A plain `f64` series (predictions, targets, errors, scores).
    Series,
    /// Timestamps aligned with a series.
    Timestamps,
    /// Sample indices (window start positions).
    Indices,
    /// Flattened rolling windows.
    Windows,
    /// Scored anomalous intervals.
    Intervals,
    /// Anything else (scalars, opaque payloads).
    Scalar,
}

impl ValueKind {
    /// Infer the kind of a slot from its conventional name.
    pub fn infer(slot: &str) -> ValueKind {
        match slot {
            "signal" => ValueKind::Signal,
            "windows" | "reconstructions" => ValueKind::Windows,
            "predictions" | "targets" | "critic_scores" | "errors" => ValueKind::Series,
            "index_timestamps" | "error_timestamps" => ValueKind::Timestamps,
            "first_index" => ValueKind::Indices,
            "anomalies" => ValueKind::Intervals,
            _ => ValueKind::Scalar,
        }
    }

    /// Stable lowercase label (used in diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            ValueKind::Signal => "signal",
            ValueKind::Series => "series",
            ValueKind::Timestamps => "timestamps",
            ValueKind::Indices => "indices",
            ValueKind::Windows => "windows",
            ValueKind::Intervals => "intervals",
            ValueKind::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for ValueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A declared context read.
#[derive(Debug, Clone)]
pub struct SlotRead {
    /// Context slot name.
    pub slot: String,
    /// Value kind carried by the slot.
    pub kind: ValueKind,
    /// Whether the primitive fails without it (`false` = optional
    /// enrichment, e.g. `reconstruction_errors` blending critic scores).
    pub required: bool,
    /// Read during `fit`.
    pub fit: bool,
    /// Read during `produce`.
    pub produce: bool,
}

/// A declared context write.
#[derive(Debug, Clone)]
pub struct SlotWrite {
    /// Context slot name.
    pub slot: String,
    /// Value kind carried by the slot.
    pub kind: ValueKind,
    /// Whether the output is the primitive's main product. Auxiliary
    /// outputs (bookkeeping series nobody may consume) are exempt from
    /// the analyzer's unused-output warning.
    pub primary: bool,
}

/// The per-phase dataflow contract of one primitive.
#[derive(Debug, Clone, Default)]
pub struct Contract {
    /// Declared context reads (with phase flags).
    pub reads: Vec<SlotRead>,
    /// Declared context writes.
    pub writes: Vec<SlotWrite>,
}

impl Contract {
    /// Derive the default contract from a primitive's `inputs` /
    /// `outputs` slots: every input is a required read in both phases,
    /// every output a primary write.
    pub fn from_io(inputs: &[&str], outputs: &[&str]) -> Self {
        Self {
            reads: inputs
                .iter()
                .map(|slot| SlotRead {
                    slot: slot.to_string(),
                    kind: ValueKind::infer(slot),
                    required: true,
                    fit: true,
                    produce: true,
                })
                .collect(),
            writes: outputs
                .iter()
                .map(|slot| SlotWrite {
                    slot: slot.to_string(),
                    kind: ValueKind::infer(slot),
                    primary: true,
                })
                .collect(),
        }
    }

    /// Refinement: mark (or add) `slot` as an optional read.
    pub fn optional_read(mut self, slot: &str) -> Self {
        if let Some(read) = self.reads.iter_mut().find(|r| r.slot == slot) {
            read.required = false;
        } else {
            self.reads.push(SlotRead {
                slot: slot.to_string(),
                kind: ValueKind::infer(slot),
                required: false,
                fit: false,
                produce: true,
            });
        }
        self
    }

    /// Refinement: mark (or add) `slot` as an *optional* read during
    /// `fit` (e.g. the deep models opportunistically inferring channel
    /// count from the raw signal while training).
    pub fn optional_fit_read(mut self, slot: &str) -> Self {
        if let Some(read) = self.reads.iter_mut().find(|r| r.slot == slot) {
            read.required = false;
            read.fit = true;
        } else {
            self.reads.push(SlotRead {
                slot: slot.to_string(),
                kind: ValueKind::infer(slot),
                required: false,
                fit: true,
                produce: false,
            });
        }
        self
    }

    /// Refinement: `slot` is consumed during `fit` only (e.g. training
    /// targets of a forecaster).
    pub fn fit_only_read(mut self, slot: &str) -> Self {
        if let Some(read) = self.reads.iter_mut().find(|r| r.slot == slot) {
            read.produce = false;
            read.fit = true;
        }
        self
    }

    /// Refinement: demote `slot` to an auxiliary (non-primary) output.
    pub fn auxiliary_write(mut self, slot: &str) -> Self {
        if let Some(write) = self.writes.iter_mut().find(|w| w.slot == slot) {
            write.primary = false;
        }
        self
    }

    /// Reads the primitive cannot run without, in either phase.
    pub fn required_reads(&self) -> impl Iterator<Item = &SlotRead> {
        self.reads.iter().filter(|r| r.required)
    }

    /// Whether the primitive declares a required read of `slot`.
    pub fn requires(&self, slot: &str) -> bool {
        self.reads.iter().any(|r| r.required && r.slot == slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_inference_follows_slot_convention() {
        assert_eq!(ValueKind::infer("signal"), ValueKind::Signal);
        assert_eq!(ValueKind::infer("windows"), ValueKind::Windows);
        assert_eq!(ValueKind::infer("reconstructions"), ValueKind::Windows);
        assert_eq!(ValueKind::infer("errors"), ValueKind::Series);
        assert_eq!(ValueKind::infer("error_timestamps"), ValueKind::Timestamps);
        assert_eq!(ValueKind::infer("first_index"), ValueKind::Indices);
        assert_eq!(ValueKind::infer("anomalies"), ValueKind::Intervals);
        assert_eq!(ValueKind::infer("mystery"), ValueKind::Scalar);
        assert_eq!(ValueKind::Signal.to_string(), "signal");
    }

    #[test]
    fn from_io_defaults_required_and_primary() {
        let c = Contract::from_io(&["signal"], &["errors"]);
        assert_eq!(c.reads.len(), 1);
        assert!(c.reads[0].required && c.reads[0].fit && c.reads[0].produce);
        assert!(c.writes[0].primary);
        assert!(c.requires("signal"));
        assert!(!c.requires("errors"));
    }

    #[test]
    fn refinements_adjust_flags() {
        let c = Contract::from_io(&["windows", "targets"], &["windows", "targets"])
        .fit_only_read("targets")
        .optional_read("critic_scores")
        .auxiliary_write("targets");
        let targets = c.reads.iter().find(|r| r.slot == "targets").unwrap();
        assert!(targets.fit && !targets.produce && targets.required);
        let critic = c.reads.iter().find(|r| r.slot == "critic_scores").unwrap();
        assert!(!critic.required);
        assert_eq!(c.required_reads().count(), 2);
        assert!(!c.writes.iter().find(|w| w.slot == "targets").unwrap().primary);
        assert!(c.writes.iter().find(|w| w.slot == "windows").unwrap().primary);
    }
}
