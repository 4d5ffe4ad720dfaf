//! # sa-core — the sampling algebra for aggregate estimation
//!
//! A from-scratch implementation of the theory in *“A Sampling Algebra for
//! Aggregate Estimation”* (Nirkhiwale, Dobra, Jermaine; VLDB 2013):
//!
//! * **GUS parameters** ([`GusParams`]): the `(a, b̄)` description of any
//!   Generalized-Uniform-Sampling process over a [`LineageSchema`] of base
//!   relations, with constructors for the Figure 1 methods (Bernoulli, WOR)
//!   and the identity/null quasi-operators.
//! * **The algebra** (Propositions 4–9): [`GusParams::join`],
//!   [`GusParams::compact`], [`GusParams::union`], [`GusParams::compose`],
//!   and [`GusParams::embed`] — everything a plan rewriter needs to collapse
//!   a plan's sampling operators into a single top-level GUS under
//!   SOA-equivalence.
//! * **Theorem 1** machinery: Möbius coefficient transforms
//!   ([`coeffs`]), grouped second moments ([`moments`]), and the exact
//!   variance evaluator [`estimator::exact_variance`].
//! * **The SBox** ([`SBox`]): the streaming estimator of Section 6 —
//!   unbiased point estimates, variance/covariance, normal and Chebyshev
//!   confidence intervals, `QUANTILE` bounds, and cross-scheme variance
//!   prediction. Every variance is one weight vector over the sample
//!   moments, `w(sampled design, target design)` ([`ReadoutPlan`]).
//! * **Section 7**: deterministic lineage-hash sub-sampling
//!   ([`LineageBernoulli`]) for cheap variance estimation.
//! * **Section 9 extension**: delta-method ratio/AVG estimation ([`delta`]).
//!
//! The crate is dependency-free and knows nothing about tables or SQL; it
//! consumes `(lineage ids, aggregate values)` streams. Higher layers
//! (`sa-plan`, `sa-exec`, `sa-sql`) provide plans, execution and parsing.
//!
//! ## Quick start
//!
//! ```
//! use sa_core::{GusParams, SBox};
//!
//! // Example 1 of the paper: Bernoulli(0.1) on lineitem joined with a
//! // WOR(1000 of 150000) sample of orders.
//! let gus = GusParams::bernoulli("lineitem", 0.1).unwrap()
//!     .join(&GusParams::wor("orders", 1000, 150_000).unwrap()).unwrap();
//! assert!((gus.a() - 6.667e-4).abs() < 1e-6);
//!
//! // Feed the (lineage, f) stream of the sampled join into the SBox:
//! let mut sbox = SBox::new(gus);
//! sbox.push_scalar(&[101, 7], 42.0).unwrap();  // (lineitem id, orders id), f
//! sbox.push_scalar(&[213, 7], 10.0).unwrap();
//! let report = sbox.finish().unwrap();
//! let ci = report.ci_normal(0, 0.95).unwrap();
//! assert!(ci.lo <= report.estimate[0] && report.estimate[0] <= ci.hi);
//! ```

#![warn(missing_docs)]

pub mod accumulator;
pub mod ci;
pub mod coeffs;
pub mod delta;
pub mod error;
pub mod estimator;
pub mod grouped_accumulator;
pub mod hash;
pub mod moments;
pub mod normal;
pub mod params;
pub mod readout;
pub mod relset;
pub mod subsample;

pub use accumulator::{MomentAccumulator, MomentSlot};
pub use ci::{chebyshev_ci, normal_ci, quantile_bound, CiLevel, CiMethod, ConfidenceInterval};
pub use delta::{ratio_of, DeltaEstimate};
pub use error::CoreError;
pub use estimator::{estimate_from_sample_moments, exact_variance, EstimateReport, SBox};
pub use grouped_accumulator::GroupedMomentAccumulator;
pub use moments::{GroupedMoments, MomentMatrix, Moments};
pub use params::GusParams;
pub use readout::{variance_reading, ReadoutPlan, SlotReadout};
pub use relset::{LineageSchema, RelSet, MAX_RELS};
pub use subsample::LineageBernoulli;

/// Crate-wide result alias.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
