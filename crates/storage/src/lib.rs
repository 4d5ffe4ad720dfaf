//! # sa-storage — relational storage substrate
//!
//! A small, dependency-free columnar storage layer used by the
//! sampling-algebra engine. It provides exactly what the paper's estimation
//! pipeline needs from a host database:
//!
//! * typed [`Value`]s and [`Schema`]s with qualified column names,
//! * columnar [`Table`]s with **stable row identifiers** ([`RowId`]) — row
//!   identity is the *lineage* unit of the GUS theory (Section 4.2 of the
//!   paper: "the lineage of each tuple in a base table is an ID"),
//! * a **block** (page) structure so block-level `SYSTEM` sampling can be
//!   expressed (block id = lineage unit at block granularity),
//! * a [`Catalog`] mapping table names to shared table handles.
//!
//! Everything is deliberately simple: a table is immutable, and it is one
//! page-aligned `.sac` image (see [`mod@format`]) — held in a heap buffer
//! when built by [`TableBuilder`], mapped from its file when persisted.
//! One reader gathers from either, reads are by column, and there is no
//! buffer manager — a mapped image leans on the OS page cache instead. The
//! estimation theory only requires that result tuples carry base-relation
//! lineage and an aggregate value; this layer supplies the former.

#![warn(missing_docs)]

pub mod catalog;
pub mod chunk;
mod column;
pub mod csv;
pub mod error;
pub mod format;
pub mod mmap;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use chunk::{ColumnData, ColumnVec, ColumnarBatch, StrDict};
pub use csv::{read_csv, write_csv, CsvOptions};
pub use error::StorageError;
pub use format::{
    corrupt_pages_total, open_catalog_dir, open_table_file, persist_catalog, retries_total,
    write_table_file, TABLE_EXT,
};
pub use schema::{DataType, Field, Schema, SchemaRef};
pub use table::{BlockId, RowId, Table, TableBuilder, DEFAULT_BLOCK_ROWS};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;
