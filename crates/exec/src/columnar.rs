//! The columnar chunk: a batch of result tuples plus per-relation lineage.
//!
//! [`ColumnarChunk`] is what the streaming executor's operators exchange: a
//! [`ColumnarBatch`] of typed column vectors (see [`sa_storage::chunk`])
//! paired with one lineage column (`Vec<u64>`) per base relation of the
//! producing subtree. Operators filter/gather whole chunks; per-row
//! [`Row`]s are materialized only at the row-level API boundary
//! ([`ColumnarChunk::to_rows`], which backs [`crate::ChunkStream::next_chunk`]).
//!
//! Beside it sits the one key kernel: [`key_fingerprint`] hashes a row's
//! key cells for join build, join probe and `GROUP BY` alike; [`keys_eq`]
//! compares two rows' keys for the join, and a `GROUP BY` row compares its
//! cells with its group's stored key in place
//! ([`ColumnVec::cell_eq_value`]).

use std::hash::Hasher;

use sa_core::hash::{splitmix64, FxHasher};
use sa_storage::{ColumnVec, ColumnarBatch};

use crate::exec::Row;

/// The 64-bit fingerprint of row `row`'s key cells, one cell of each of
/// `cols`: the column count, then each cell through
/// [`ColumnVec::hash_cell`], which writes what `Value::hash` would — so a
/// row's fingerprint is `sa_core::hash::FpMap::fingerprint` of its key as
/// a `Vec<Value>`, whose `Hash` writes its length first, and a `GROUP BY`
/// row finds its stored key by it. Rows that [`keys_eq`] calls equal share
/// a fingerprint; rows of different keys may share one too, which is why
/// every user checks the stored key before it trusts a match. The Fx state
/// is finalized with splitmix64: numeric cells hash by their f64 bit
/// pattern, whose entropy sits in the high bits, and Fx's multiply-only
/// mixing never carries high bits down into a hash table's bucket bits. No
/// key cells (a keyless join) give every row one fingerprint.
#[inline]
pub fn key_fingerprint(cols: &[&ColumnVec], row: usize) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(cols.len());
    for c in cols {
        c.hash_cell(row, &mut h);
    }
    splitmix64(h.finish())
}

/// Do row `i` of `a` and row `j` of `b` carry equal keys? Cell by cell
/// through [`ColumnVec::cell_eq`], so `NULL` equals `NULL`, as a `GROUP BY`
/// key wants; a join drops NULL-keyed rows before it fingerprints them.
#[inline]
pub fn keys_eq(a: &[&ColumnVec], i: usize, b: &[&ColumnVec], j: usize) -> bool {
    a.iter().zip(b).all(|(x, y)| x.cell_eq(i, y, j))
}

/// A chunk of streamed result tuples in columnar form: the value batch and
/// one lineage id column per base relation (in scan order).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarChunk {
    /// Column values, aligned with the producing node's schema.
    pub batch: ColumnarBatch,
    /// Lineage id columns, one per base relation, each of `rows()` length.
    pub lineage: Vec<Vec<u64>>,
}

impl ColumnarChunk {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.batch.rows()
    }

    /// True when the chunk carries no rows (the stream-exhausted signal).
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.filter(mask),
            lineage: self
                .lineage
                .iter()
                .map(|l| {
                    l.iter()
                        .zip(mask)
                        .filter(|(_, &m)| m)
                        .map(|(&x, _)| x)
                        .collect()
                })
                .collect(),
        }
    }

    /// Gather rows by index (repetition allowed).
    pub fn take(&self, indices: &[u32]) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.take(indices),
            lineage: self
                .lineage
                .iter()
                .map(|l| indices.iter().map(|&i| l[i as usize]).collect())
                .collect(),
        }
    }

    /// The contiguous sub-chunk `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnarChunk {
        ColumnarChunk {
            batch: self.batch.slice(start, len),
            lineage: self
                .lineage
                .iter()
                .map(|l| l[start..start + len].to_vec())
                .collect(),
        }
    }

    /// Vertical concatenation: the rows of `parts`, in order, as one chunk
    /// (a drained subtree: a join build side).
    /// `parts` must be non-empty and share one column shape.
    pub fn concat(mut parts: Vec<ColumnarChunk>) -> ColumnarChunk {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let batches: Vec<&ColumnarBatch> = parts.iter().map(|p| &p.batch).collect();
        let n_rels = parts
            .first()
            .expect("concat of at least one chunk")
            .lineage
            .len();
        ColumnarChunk {
            batch: ColumnarBatch::concat_rows(&batches),
            lineage: (0..n_rels)
                .map(|rel| {
                    parts
                        .iter()
                        .flat_map(|p| p.lineage[rel].iter().copied())
                        .collect()
                })
                .collect(),
        }
    }

    /// Materialize the row-level view (the [`crate::ChunkStream::next_chunk`]
    /// adapter).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows())
            .map(|i| Row {
                values: self.batch.row_values(i),
                lineage: self.lineage.iter().map(|l| l[i]).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_storage::{ColumnData, ColumnVec, Value};

    fn chunk() -> ColumnarChunk {
        ColumnarChunk {
            batch: ColumnarBatch::new(
                vec![
                    ColumnVec::new(ColumnData::Int((0..5).collect())),
                    ColumnVec::new(ColumnData::Float((0..5).map(|i| i as f64 * 0.5).collect())),
                ],
                5,
            ),
            lineage: vec![(0..5).collect(), (100..105).collect()],
        }
    }

    #[test]
    fn rows_carry_values_and_lineage() {
        let rows = chunk().to_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3].values, vec![Value::Int(3), Value::Float(1.5)]);
        assert_eq!(rows[3].lineage, vec![3, 103]);
    }

    #[test]
    fn filter_take_slice_carry_lineage() {
        let c = chunk();
        let f = c.filter(&[true, false, false, true, true]);
        assert_eq!(f.rows(), 3);
        assert_eq!(f.lineage[0], vec![0, 3, 4]);
        assert_eq!(f.lineage[1], vec![100, 103, 104]);
        let t = c.take(&[4, 0]);
        assert_eq!(t.lineage[0], vec![4, 0]);
        let s = c.slice(1, 2);
        assert_eq!(s.lineage[0], vec![1, 2]);
        assert_eq!(s.to_rows()[0].values[0], Value::Int(1));
    }

    #[test]
    fn concat_restores_a_sliced_chunk() {
        let c = chunk();
        let parts = vec![c.slice(0, 2), c.slice(2, 3), c.slice(5, 0)];
        assert_eq!(ColumnarChunk::concat(parts), c);
        assert_eq!(ColumnarChunk::concat(vec![c.clone()]), c);
    }
}
