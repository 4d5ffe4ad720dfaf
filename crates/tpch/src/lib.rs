//! # sa-tpch — deterministic TPC-H-style data generation
//!
//! The evaluation substrate: a seeded generator for the eight TPC-H tables at
//! an arbitrary scale factor, with optional Zipf skew on part popularity.
//! Replaces the official `dbgen` tool for the paper's experiments: what
//! matters to the estimator is cardinalities, foreign-key fan-out and the
//! aggregate's moments, all of which are faithfully controlled here.

#![warn(missing_docs)]

pub mod gen;
pub mod zipf;

pub use gen::{
    gen_customer, gen_lineitem, gen_nation, gen_orders, gen_part, gen_partsupp, gen_region,
    gen_supplier, generate, Cardinalities, TpchConfig,
};
pub use zipf::Zipf;
