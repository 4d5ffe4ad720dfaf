//! Immutable columnar tables with stable row identifiers and block structure.
//!
//! Row identity matters here more than in an ordinary engine: the GUS theory
//! performs all second-moment accounting on *lineage*, and the lineage of a
//! base-table tuple is its [`RowId`]. Block structure exists so block-level
//! (`SYSTEM`) sampling can use the block id as the lineage unit instead.
//!
//! Every table is one `.sac` page image (see [`crate::format`]): built in a
//! heap buffer by [`TableBuilder`], or mapped from a persisted file. One
//! reader serves both, so where a table's bytes live never changes what a
//! gather returns.

use std::path::Path;
use std::sync::Arc;

use crate::chunk::ColumnarBatch;
use crate::column::ColumnBuffer;
use crate::error::StorageError;
use crate::format::TableImage;
use crate::mmap::Mmap;
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use crate::Result;

/// Stable identifier of a row within one table (its lineage id).
pub type RowId = u64;

/// Identifier of a block (page) of rows within one table.
pub type BlockId = u64;

/// Default number of rows per block, mirroring a small disk page.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

/// An immutable, named, columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: Arc<str>,
    schema: SchemaRef,
    image: TableImage,
    row_count: u64,
    block_rows: usize,
}

impl Table {
    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema (fields qualified by the table name).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    pub(crate) fn from_image(
        name: String,
        schema: Schema,
        block_rows: usize,
        row_count: u64,
        image: TableImage,
    ) -> Table {
        Table {
            name: Arc::from(name.as_str()),
            schema: Arc::new(schema),
            image,
            row_count,
            block_rows,
        }
    }

    pub(crate) fn image(&self) -> &TableImage {
        &self.image
    }

    /// Evaluate the storage fault-injection sites for one gather, with
    /// bounded retry + backoff for transient (injected) I/O faults. Real
    /// image reads cannot fail transiently — the OS either delivers the
    /// page or kills the process — so this is one untaken branch unless a
    /// `--fault` spec armed the registry.
    fn fault_guard(&self) -> Result<()> {
        if !sa_fault::armed() {
            return Ok(());
        }
        use sa_fault::sites;
        if sa_fault::hit(sites::STORAGE_PAGE_LATENCY) {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        if sa_fault::hit(sites::STORAGE_PAGE_TORN) {
            crate::format::note_corrupt_page();
            return Err(StorageError::CorruptPage {
                path: self.name.to_string(),
                page: 0,
                message: "injected torn page".into(),
            });
        }
        let mut attempt = 0u32;
        while sa_fault::hit(sites::STORAGE_PAGE_IO) {
            attempt += 1;
            if attempt >= 3 {
                return Err(StorageError::Io {
                    path: self.name.to_string(),
                    message: format!("injected i/o fault persisted across {attempt} attempts"),
                });
            }
            crate::format::note_retry();
            std::thread::sleep(std::time::Duration::from_micros(100 << attempt));
        }
        Ok(())
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.image.column_count()
    }

    fn check_row(&self, row: RowId) -> Result<()> {
        if row >= self.row_count {
            return Err(StorageError::RowOutOfBounds {
                row,
                len: self.row_count,
            });
        }
        Ok(())
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: RowId, col: usize) -> Result<Value> {
        self.check_row(row)?;
        self.image.value(row as usize, col)
    }

    /// Materialize an entire row.
    pub fn row(&self, row: RowId) -> Result<Vec<Value>> {
        self.check_row(row)?;
        (0..self.column_count())
            .map(|c| self.image.value(row as usize, c))
            .collect()
    }

    /// Rows per block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Number of blocks (ceil of rows / block size); 0 for an empty table.
    pub fn block_count(&self) -> u64 {
        if self.row_count == 0 {
            0
        } else {
            self.row_count.div_ceil(self.block_rows as u64)
        }
    }

    /// The block containing `row`.
    pub fn block_of(&self, row: RowId) -> BlockId {
        row / self.block_rows as u64
    }

    /// Gather the half-open row range `[start, end)` as a columnar batch —
    /// a decode out of the image per column, no per-row [`Value`]
    /// materialization (string columns share their dictionary with the
    /// batch).
    ///
    /// Empty and reversed ranges (`start >= end`) are a defined no-op: the
    /// result is an empty batch with the full column shapes, never an error.
    /// Only `start < end` ranges are bounds-checked against the row count.
    pub fn batch_range(&self, start: RowId, end: RowId) -> Result<ColumnarBatch> {
        let all: Vec<usize> = (0..self.column_count()).collect();
        self.batch_range_cols(start, end, &all)
    }

    /// [`Table::batch_range`] restricted to the columns in `cols` (indices
    /// into the table schema; the batch holds them in `cols` order). This is
    /// the projection-pushdown entry point: unlisted columns are never
    /// touched, which on a mapped image means their pages are never
    /// faulted in.
    pub fn batch_range_cols(
        &self,
        start: RowId,
        end: RowId,
        cols: &[usize],
    ) -> Result<ColumnarBatch> {
        if start >= end {
            // Defined empty/reversed-range contract: an empty batch with the
            // requested column shapes (no pages touched, no faults).
            let columns = cols
                .iter()
                .map(|&c| self.image.gather_range(c, 0, 0))
                .collect::<Result<_>>()?;
            return Ok(ColumnarBatch::new(columns, 0));
        }
        if end > self.row_count {
            return Err(StorageError::RowOutOfBounds {
                row: end,
                len: self.row_count,
            });
        }
        self.fault_guard()?;
        let (s, e) = (start as usize, end as usize);
        let columns = cols
            .iter()
            .map(|&c| self.image.gather_range(c, s, e))
            .collect::<Result<_>>()?;
        Ok(ColumnarBatch::new(columns, e - s))
    }

    /// Gather selected `rows` (ascending, in bounds) of the columns in
    /// `cols`. This is the predicate-pushdown gather: rows dropped by a
    /// scan-level predicate are simply absent from `rows`, so they are never
    /// materialized into a batch.
    pub fn gather_rows_cols(&self, rows: &[RowId], cols: &[usize]) -> Result<ColumnarBatch> {
        if let Some(&last) = rows.last() {
            self.check_row(last)?;
            self.fault_guard()?;
        }
        let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let columns = cols
            .iter()
            .map(|&c| self.image.gather_rows(c, &idx))
            .collect::<Result<_>>()?;
        Ok(ColumnarBatch::new(columns, idx.len()))
    }

    /// Persist this table to `path` in the `.sac` format (see
    /// [`crate::format`]). Returns the file length in bytes.
    pub fn persist(&self, path: &Path) -> Result<u64> {
        crate::format::write_table_file(self, path)
    }

    /// Open a `.sac` file as a memory-mapped table.
    pub fn open_mapped(path: &Path) -> Result<Table> {
        crate::format::open_table_file(path)
    }

    /// The half-open row range `[start, end)` of block `block`.
    pub fn block_range(&self, block: BlockId) -> (RowId, RowId) {
        let start = block * self.block_rows as u64;
        let end = (start + self.block_rows as u64).min(self.row_count);
        (start, end)
    }
}

/// Builder for a [`Table`]: declare the schema, then push rows.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    columns: Vec<ColumnBuffer>,
    /// The pages the columns write into: the image under construction,
    /// its header page first.
    arena: Vec<u8>,
    schema: Schema,
    block_rows: usize,
}

impl TableBuilder {
    /// Start a table named `name` with the given schema. Fields are
    /// re-qualified by the table name so joins produce unambiguous schemas.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let schema = schema.qualify_all(&name);
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuffer::new(f.qualified_name(), f.data_type))
            .collect();
        TableBuilder {
            name,
            columns,
            arena: vec![0; crate::format::PAGE_SIZE],
            schema,
            block_rows: DEFAULT_BLOCK_ROWS,
        }
    }

    /// Override the block (page) size in rows. Must be nonzero.
    pub fn with_block_rows(mut self, block_rows: usize) -> Self {
        assert!(block_rows > 0, "block size must be positive");
        self.block_rows = block_rows;
        self
    }

    /// Reserve capacity for `n` more rows in every column.
    pub fn reserve(&mut self, n: usize) {
        let bytes = (self.columns.iter())
            .map(|c| crate::format::data_len_for(c.data_type, n))
            .sum();
        self.arena.reserve(bytes);
    }

    /// Append one row; the slice length must equal the schema arity.
    /// `Null` is accepted for any type and `Int` widens into a `Float`
    /// column; any other mismatch is [`StorageError::TypeMismatch`].
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != schema arity {}",
            row.len(),
            self.columns.len()
        );
        for (c, v) in self.columns.iter_mut().zip(row.iter()) {
            c.push(&mut self.arena, v)?;
        }
        Ok(())
    }

    /// Finish building: lay the rows out as one `.sac` page image in a heap
    /// buffer and open it with the one reader. Verifies all columns have
    /// equal length.
    pub fn finish(self) -> Result<Table> {
        let lengths: Vec<usize> = self.columns.iter().map(|c| c.rows).collect();
        if lengths.windows(2).any(|w| w[0] != w[1]) {
            return Err(StorageError::RaggedColumns {
                table: self.name,
                lengths,
            });
        }
        let rows = lengths.first().copied().unwrap_or(0);
        let bytes = crate::format::lay_out(
            &self.name,
            self.schema.fields(),
            self.block_rows,
            rows,
            self.columns,
            self.arena,
        );
        let (_, image) = TableImage::open(Mmap::heap(bytes), Path::new(&self.name))?;
        Ok(Table::from_image(
            self.name,
            self.schema,
            self.block_rows,
            rows as u64,
            image,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(2);
        for i in 0..5 {
            b.push_row(&[Value::Int(i), Value::Float(i as f64 * 0.5)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn build_and_read() {
        let t = small_table();
        assert_eq!(t.name(), "t");
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.value(3, 0).unwrap(), Value::Int(3));
        assert_eq!(t.row(4).unwrap(), vec![Value::Int(4), Value::Float(2.0)]);
    }

    #[test]
    fn schema_is_qualified_by_table_name() {
        let t = small_table();
        assert_eq!(t.schema().index_of("t.k").unwrap(), 0);
        assert_eq!(t.schema().index_of("t.v").unwrap(), 1);
    }

    #[test]
    fn row_out_of_bounds() {
        let t = small_table();
        assert!(matches!(
            t.value(5, 0),
            Err(StorageError::RowOutOfBounds { .. })
        ));
        assert!(t.row(99).is_err());
    }

    #[test]
    fn blocks() {
        let t = small_table(); // 5 rows, 2 per block -> 3 blocks
        assert_eq!(t.block_count(), 3);
        assert_eq!(t.block_of(0), 0);
        assert_eq!(t.block_of(4), 2);
        assert_eq!(t.block_range(0), (0, 2));
        assert_eq!(t.block_range(2), (4, 5)); // last block is short
    }

    #[test]
    fn empty_table() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
        let t = TableBuilder::new("e", schema).finish().unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.block_count(), 0);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_panics() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        let _ = b.push_row(&[Value::Int(1), Value::Int(2)]);
    }

    fn nullable_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema).with_block_rows(3);
        for i in 0..10i64 {
            let s: Value = if i % 4 == 3 {
                Value::Null
            } else {
                Value::str(format!("s{}", i % 3))
            };
            let v = if i % 5 == 4 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.25)
            };
            b.push_row(&[Value::Int(i), v, s, Value::Bool(i % 2 == 0)])
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn mapped_copy(t: &Table, tag: &str) -> Table {
        let path = std::env::temp_dir().join(format!(
            "sa-table-{}-{}-{tag}.sac",
            std::process::id(),
            t.name()
        ));
        t.persist(&path).unwrap();
        let m = Table::open_mapped(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        m
    }

    #[test]
    fn mapped_round_trip_is_bit_identical() {
        let t = nullable_table();
        let m = mapped_copy(&t, "rt");
        assert_eq!(m.image().bytes(), t.image().bytes());
        assert_eq!(m.name(), t.name());
        assert_eq!(m.schema(), t.schema());
        assert_eq!(m.row_count(), t.row_count());
        assert_eq!(m.block_rows(), t.block_rows());
        // Whole-table and sub-range gathers are equal batch-for-batch.
        assert_eq!(m.batch_range(0, 10).unwrap(), t.batch_range(0, 10).unwrap());
        assert_eq!(m.batch_range(3, 8).unwrap(), t.batch_range(3, 8).unwrap());
        // Selected-column and selected-row gathers too.
        assert_eq!(
            m.batch_range_cols(2, 9, &[0, 2]).unwrap(),
            t.batch_range_cols(2, 9, &[0, 2]).unwrap()
        );
        assert_eq!(
            m.gather_rows_cols(&[0, 4, 7, 9], &[1, 3]).unwrap(),
            t.gather_rows_cols(&[0, 4, 7, 9], &[1, 3]).unwrap()
        );
        // Row-level access agrees (including nulls).
        for r in 0..10 {
            assert_eq!(m.row(r).unwrap(), t.row(r).unwrap());
        }
    }

    #[test]
    fn batch_range_empty_and_reversed_are_defined() {
        let t = nullable_table();
        let m = mapped_copy(&t, "empty");
        for tab in [&t, &m] {
            // Empty range: defined empty batch with full column shapes.
            let b = tab.batch_range(4, 4).unwrap();
            assert_eq!(b.rows(), 0);
            assert_eq!(b.columns().len(), 4);
            // Reversed range: same contract, even past the end of the table.
            let b = tab.batch_range(7, 2).unwrap();
            assert_eq!(b.rows(), 0);
            let b = tab.batch_range(99, 98).unwrap();
            assert_eq!(b.rows(), 0);
            assert_eq!(b.column(2).data_type(), DataType::Str);
            // Non-empty out-of-bounds ranges still error.
            assert!(matches!(
                tab.batch_range(5, 11),
                Err(StorageError::RowOutOfBounds { .. })
            ));
        }
    }

    /// Persisting a mapped table onto the file it maps replaces the file
    /// rather than truncating it under the map: the old map still reads,
    /// and the file reopens to the same image with no temporary left.
    #[test]
    fn persisting_a_mapped_table_onto_its_own_file_keeps_it() {
        let t = nullable_table();
        let dir = std::env::temp_dir().join(format!("sa-table-self-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sac");
        let len = t.persist(&path).unwrap();
        let m = Table::open_mapped(&path).unwrap();
        assert_eq!(m.persist(&path).unwrap(), len);
        for r in 0..10 {
            assert_eq!(m.row(r).unwrap(), t.row(r).unwrap());
        }
        let again = Table::open_mapped(&path).unwrap();
        assert_eq!(again.image().bytes(), t.image().bytes());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["t.sac"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_file_is_page_aligned() {
        let t = nullable_table();
        let path = std::env::temp_dir().join(format!("sa-table-align-{}.sac", std::process::id()));
        let len = t.persist(&path).unwrap();
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..8], crate::format::MAGIC);
        // Header page + at least one aligned segment page.
        assert!(len > crate::format::PAGE_SIZE as u64);
        std::fs::remove_file(&path).unwrap();
    }
}
