//! # sa-plan — logical plans and the SOA-equivalence rewriter
//!
//! [`LogicalPlan`] is the query tree the user writes: scans, `TABLESAMPLE`
//! operators, filters, joins, projections and one root aggregate.
//! [`rewrite()`] derives, without changing what executes, the SOA-equivalent
//! form with a *single* GUS quasi-operator at the top (Section 4 of the
//! paper) — the parameters the SBox estimator needs — together with a
//! [`RewriteTrace`] that reproduces the paper's Figure 2/4 walk-throughs.

#![warn(missing_docs)]

pub mod columns;
pub mod error;
pub mod plan;
pub mod rewrite;
pub mod stopping;

pub use columns::{ScanCols, ScanColumnMap};
pub use error::PlanError;
pub use plan::{AggFunc, AggSpec, LogicalPlan};
pub use rewrite::{render_gus_table, rewrite, RewriteStep, RewriteTrace, Rule, SoaAnalysis};
pub use stopping::{CiTarget, StopReason, StoppingRule};

/// Crate-wide result alias.
pub type Result<T, E = PlanError> = std::result::Result<T, E>;
