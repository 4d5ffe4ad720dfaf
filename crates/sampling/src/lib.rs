//! # sa-sampling — sampling operators with GUS translations
//!
//! The concrete sampling methods of the paper's Figure 1 plus the SQL
//! standard's block-level `SYSTEM` sampling:
//!
//! * [`SamplingMethod::Bernoulli`] — tuple-level coin flips;
//! * [`SamplingMethod::Wor`] — fixed-size without replacement (Floyd's
//!   algorithm);
//! * [`SamplingMethod::System`] — block-level Bernoulli, analyzable as GUS at
//!   **block** lineage granularity ([`LineageUnit::Block`]).
//!
//! Each is defined once, as the [`Keep`] predicate a seed draws
//! ([`SamplingMethod::keep`]); every executor and the Monte-Carlo check
//! realize a sample through it.
//!
//! AQUA-style correlated foreign-key sampling needs no dedicated operator in
//! this algebra: sampling the fact table with Bernoulli(p) and joining the
//! *unsampled* dimension is SOA-equivalent to it for FK joins (each fact
//! tuple matches exactly one dimension tuple, and unreferenced dimension
//! tuples never reach the result). The integration tests pin this down.
//!
//! [`montecarlo`] measures GUS parameters empirically, letting the test
//! suite differentially verify each method's analysis against the keep every
//! query runs.

#![warn(missing_docs)]

pub mod error;
pub mod method;
pub mod montecarlo;

pub use error::SamplingError;
pub use method::{Keep, LineageUnit, SamplingMethod};
pub use montecarlo::{measure_single_relation, EmpiricalGus};

/// Crate-wide result alias.
pub type Result<T, E = SamplingError> = std::result::Result<T, E>;
