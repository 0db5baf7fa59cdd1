#![warn(missing_docs)]

//! # sintel-common
//!
//! Shared low-level utilities for the Sintel reproduction workspace:
//! a deterministic random number generator with the distributions the
//! framework needs (uniform, normal, choice, shuffle), a deterministic
//! parallel fan-out substrate ([`par`]), an in-tree property-testing
//! harness ([`check`]) with its seeded byte edits, the workspace's one
//! JSON codec ([`json`]: the [`json::Doc`] document value with its
//! writer and parser), the one allocation meter ([`mod@alloc`]: a
//! counting global allocator and the parsers' allocation
//! [`alloc::budget`]), and a handful of numeric helpers used across
//! crates.
//!
//! Everything in the workspace that needs randomness goes through
//! [`SintelRng`] so that experiments are reproducible from a single
//! seed, and everything that needs threads goes through [`par`] so
//! that results are bit-identical at every `SINTEL_THREADS` setting.

pub mod alloc;
pub mod cancel;
pub mod check;
mod doc;
pub mod json;
pub mod numeric;
pub mod par;
pub mod rng;

pub use cancel::{cancelled, with_cancel_token, CancelToken};
pub use numeric::{argmax, argmin, ewma, mean, median, quantile, stddev, variance};
pub use par::{configured_threads, panic_message, par_map, par_try_map, set_threads, TaskPanic};
pub use rng::SintelRng;
