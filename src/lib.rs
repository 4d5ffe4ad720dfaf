//! # sampling-algebra
//!
//! A complete, from-scratch implementation of **“A Sampling Algebra for
//! Aggregate Estimation”** (Nirkhiwale, Dobra, Jermaine; VLDB 2013): the GUS
//! sampling algebra, SOA-equivalent plan rewriting, and the SBox estimator
//! that turns any `TABLESAMPLE` aggregate query into an unbiased estimate
//! with confidence intervals — plus every substrate the paper needs (a small
//! relational engine with lineage, sampling operators, a SQL front-end, a
//! TPC-H-style generator and baseline estimators).
//!
//! ## The one-paragraph version of the paper
//!
//! Any uniform sampling scheme (Bernoulli, fixed-size WOR, block-level
//! `SYSTEM`, stacks and combinations thereof) is a *Generalized Uniform
//! Sampling* (GUS) process, describable by a first-order inclusion
//! probability `a` and pair-inclusion probabilities `b_T` indexed by the set
//! of base relations `T` two result tuples share lineage on. GUS operators
//! commute with selections and joins up to *second-order analytical (SOA)
//! equivalence* — equality of the mean and variance of every SUM-like
//! aggregate — so any plan collapses to a single GUS above a sampling-free
//! plan. Theorem 1 then gives the exact estimator variance as a linear
//! combination of group-by-lineage second moments `y_S`, which can
//! themselves be estimated unbiasedly from the sample. Confidence intervals
//! follow from normal or Chebyshev bounds.
//!
//! ## Quick start
//!
//! ```
//! use sampling_algebra::prelude::*;
//!
//! // A toy catalog (use sa_tpch::generate for realistic data).
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![
//!     Field::new("k", DataType::Int),
//!     Field::new("v", DataType::Float),
//! ]).unwrap();
//! let mut b = TableBuilder::new("t", schema);
//! for i in 0..1000 { b.push_row(&[Value::Int(i), Value::Float(1.0)]).unwrap(); }
//! catalog.register(b.finish().unwrap()).unwrap();
//!
//! // An Engine owns the catalog; sessions build queries fluently.
//! let engine = Engine::new(catalog);
//!
//! // The paper's interface: SQL with TABLESAMPLE and QUANTILE bounds.
//! let plan = plan_sql(
//!     "SELECT QUANTILE(SUM(v), 0.05) AS lo, QUANTILE(SUM(v), 0.95) AS hi \
//!      FROM t TABLESAMPLE (20 PERCENT)",
//!     engine.catalog(),
//! ).unwrap();
//! let result = engine.session().query_plan(&plan).batch().unwrap();
//! let aggs = &result.snapshot.as_scalar().unwrap().aggs;
//! let (lo, hi) = (aggs[0].quantile_bound.unwrap(), aggs[1].quantile_bound.unwrap());
//! assert!(lo < hi);
//! // The true answer is 1000; the 90% interval should usually contain it.
//! assert!(lo < 1000.0 + 200.0 && hi > 1000.0 - 200.0);
//! ```

#![warn(missing_docs)]

pub use sa_baselines as baselines;
pub use sa_core as core;
pub use sa_exec as exec;
pub use sa_expr as expr;
pub use sa_fault as fault;
pub use sa_online as online;
pub use sa_plan as plan;
pub use sa_sampling as sampling;
pub use sa_server as server;
pub use sa_sql as sql;
pub use sa_storage as storage;
pub use sa_tpch as tpch;

/// The most common imports in one place.
pub mod prelude {
    pub use sa_baselines::{bootstrap, compare_estimators, naive_clt, oracle_variance};
    pub use sa_core::{
        chebyshev_ci, normal_ci, quantile_bound, ConfidenceInterval, EstimateReport,
        GroupedMomentAccumulator, GusParams, LineageBernoulli, LineageSchema, MomentAccumulator,
        RelSet, SBox,
    };
    pub use sa_exec::{open_stream, open_stream_partitioned, AggResult, ChunkStream, ExecOptions};
    pub use sa_expr::{col, lit, Expr};
    pub use sa_online::{
        Engine, EngineBuilder, Error, GroupedProgressSnapshot, ProgressSnapshot, QueryBuilder,
        QueryHandle, QueryOptions, QueryResult, Session, Snapshot,
    };
    pub use sa_plan::{
        render_gus_table, rewrite, AggFunc, AggSpec, LogicalPlan, SoaAnalysis, StopReason,
        StoppingRule,
    };
    pub use sa_sampling::{LineageUnit, SamplingMethod};
    pub use sa_sql::plan_sql;
    pub use sa_storage::{Catalog, DataType, Field, Schema, Table, TableBuilder, Value};
    pub use sa_tpch::{generate, TpchConfig};
}
