//! # sa-exec — execution with lineage
//!
//! * [`open_stream`] compiles a [`sa_plan::LogicalPlan`] — sampling
//!   operators included — into a chunked, pull-based columnar executor that
//!   carries per-base-relation lineage through scans, samples, filters,
//!   joins and projections (Section 6.2 of the paper: the SBox needs only
//!   lineage ids and aggregate values). It is the one executor queries run
//!   on: `sa-online` drains it for batch answers and stops it early for
//!   online ones. [`open_stream_partitioned`] splits the same stream into N
//!   disjoint, deterministic worker slices for shard-parallel drivers.
//! * [`layout_dims`] / [`BatchDimEval`] / [`agg_results_from_report`] map a
//!   `SELECT` list onto SBox dimensions, evaluate them a batch at a time,
//!   and turn an estimate report back into per-aggregate results.
//! * [`execute`] is the row-at-a-time **reference executor**: the same
//!   plans through the `sa_expr::eval` interpreter, kept for the
//!   differential tests that pin the stream against it. No query path
//!   calls it.
//!
//! # Examples
//!
//! Stream a sampled scan chunk by chunk and accumulate the SBox moments of
//! `SUM(v)` over it:
//!
//! ```
//! use sa_core::MomentAccumulator;
//! use sa_exec::{layout_dims, open_stream, ExecOptions};
//! use sa_plan::{rewrite, AggSpec, LogicalPlan};
//! use sa_sampling::SamplingMethod;
//! use sa_storage::{Catalog, DataType, Field, Schema, TableBuilder, Value};
//!
//! let mut catalog = Catalog::new();
//! let schema = Schema::new(vec![Field::new("v", DataType::Float)]).unwrap();
//! let mut b = TableBuilder::new("t", schema);
//! for _ in 0..1000 { b.push_row(&[Value::Float(2.0)]).unwrap(); }
//! catalog.register(b.finish().unwrap()).unwrap();
//!
//! // The aggregate's *input*, pulled in chunks with lineage.
//! let sampled = LogicalPlan::scan("t").sample(SamplingMethod::Bernoulli { p: 0.5 });
//! let aggs = vec![AggSpec::sum(sa_expr::col("v"), "s")];
//! let mut stream =
//!     open_stream(&sampled, &catalog, &ExecOptions { seed: 7, ..Default::default() }).unwrap();
//! let dims = layout_dims(&aggs, stream.schema()).unwrap().compile_batch(stream.schema()).unwrap();
//! let mut acc = MomentAccumulator::new(1, dims.dims());
//! loop {
//!     let chunk = stream.next_batch(64).unwrap();
//!     if chunk.is_empty() { break; }
//!     assert_eq!(chunk.lineage.len(), 1);
//!     let f = dims.eval(&chunk.batch).unwrap();
//!     acc.push_batch(&[&chunk.lineage[0]], &[&f[0]]).unwrap();
//! }
//!
//! // Read the estimate out under the plan's GUS: SUM(v) ≈ 2000.
//! let gus = rewrite(&sampled.aggregate(aggs), &catalog).unwrap().gus;
//! let report = acc.report(&gus).unwrap();
//! assert!((report.estimate[0] - 2000.0).abs() < 400.0);
//! ```

#![warn(missing_docs)]

pub mod columnar;
pub mod error;
pub mod exec;
pub mod layout;
pub mod shared;
pub mod stream;

pub use columnar::ColumnarChunk;
pub use error::ExecError;
pub use exec::{execute, ExecOptions, ResultSet, Row, ScanObs};
pub use layout::{
    agg_results_from_report, f_vector, layout_dims, AggResult, BatchDimEval, DimLayout,
    DrainedSample,
};
pub use shared::{SharedScanCursor, SharedScanStats, SharedTableScan};
pub use stream::{
    open_shared_stream, open_stream, open_stream_partitioned, shared_scan_needs, ChunkStream,
};

/// Crate-wide result alias.
pub type Result<T, E = ExecError> = std::result::Result<T, E>;
