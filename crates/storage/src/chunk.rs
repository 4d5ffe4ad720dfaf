//! Columnar batches: the unit of vectorized execution.
//!
//! A [`ColumnarBatch`] is a horizontal slice of a result set stored as
//! typed column vectors — `i64`/`f64`/`bool` values and dictionary-coded
//! strings — with an optional validity (non-null) bitmap per column. The
//! streaming executor gathers batches straight from [`crate::Table`]
//! columns and every operator (sample, filter, project, join) transforms
//! whole batches, so no per-row `Vec<Value>` is ever allocated on the hot
//! path; [`crate::Value`]s are materialized only at row-level API
//! boundaries ([`ColumnarBatch::row_values`]).
//!
//! String columns stay dictionary-coded end to end: a batch shares its
//! source column's dictionary behind an `Arc` and carries only the `u32`
//! codes, so gathering, filtering and joining strings moves 4-byte codes,
//! not refcounted pointers.

use std::collections::HashMap;
use std::sync::Arc;

use crate::schema::DataType;
use crate::value::Value;

/// A shared string dictionary: code → interned string.
pub type StrDict = Arc<Vec<Arc<str>>>;

/// The typed values of one batch column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dictionary-coded strings: `dict[codes[row]]`.
    Str {
        /// The shared dictionary (typically the source column's).
        dict: StrDict,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
}

/// One column of a [`ColumnarBatch`]: typed data plus an optional validity
/// vector (`None` = no nulls; `Some(v)` with `v[row] = true` = present).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnVec {
    /// The typed values (arbitrary where invalid).
    pub data: ColumnData,
    /// Validity bitmap; `None` means every row is valid.
    pub validity: Option<Vec<bool>>,
}

impl ColumnVec {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's [`DataType`].
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Is the value at `row` non-null?
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[row])
    }

    /// Materialize the [`Value`] at `row`.
    pub fn value(&self, row: usize) -> Value {
        if !self.is_valid(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str { dict, codes } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// An all-valid column built from a whole data vector.
    pub fn new(data: ColumnData) -> ColumnVec {
        ColumnVec {
            data,
            validity: None,
        }
    }

    /// Build a column of `data_type` from row-major values (the bridge for
    /// materialized row vectors). `Null` is accepted for any type; `Int`
    /// widens into a `Float` column. Panics on other mismatches — callers
    /// hold schema-checked rows.
    pub fn from_values(data_type: DataType, values: impl Iterator<Item = Value>) -> ColumnVec {
        let (lo, _) = values.size_hint();
        let mut validity: Vec<bool> = Vec::with_capacity(lo);
        let mut any_null = false;
        let data = match data_type {
            DataType::Bool => {
                let mut out = Vec::with_capacity(lo);
                for v in values {
                    match v {
                        Value::Bool(b) => {
                            out.push(b);
                            validity.push(true);
                        }
                        Value::Null => {
                            out.push(false);
                            validity.push(false);
                            any_null = true;
                        }
                        other => panic!("Bool column got {other:?}"),
                    }
                }
                ColumnData::Bool(out)
            }
            DataType::Int => {
                let mut out = Vec::with_capacity(lo);
                for v in values {
                    match v {
                        Value::Int(i) => {
                            out.push(i);
                            validity.push(true);
                        }
                        Value::Null => {
                            out.push(0);
                            validity.push(false);
                            any_null = true;
                        }
                        other => panic!("Int column got {other:?}"),
                    }
                }
                ColumnData::Int(out)
            }
            DataType::Float => {
                let mut out = Vec::with_capacity(lo);
                for v in values {
                    match v {
                        Value::Float(f) => {
                            out.push(f);
                            validity.push(true);
                        }
                        Value::Int(i) => {
                            out.push(i as f64);
                            validity.push(true);
                        }
                        Value::Null => {
                            out.push(0.0);
                            validity.push(false);
                            any_null = true;
                        }
                        other => panic!("Float column got {other:?}"),
                    }
                }
                ColumnData::Float(out)
            }
            DataType::Str => {
                let mut dict: Vec<Arc<str>> = Vec::new();
                let mut index: std::collections::HashMap<Arc<str>, u32> = Default::default();
                let mut codes = Vec::with_capacity(lo);
                for v in values {
                    match v {
                        Value::Str(s) => {
                            let code = *index.entry(s.clone()).or_insert_with(|| {
                                dict.push(s.clone());
                                (dict.len() - 1) as u32
                            });
                            codes.push(code);
                            validity.push(true);
                        }
                        Value::Null => {
                            codes.push(0);
                            validity.push(false);
                            any_null = true;
                        }
                        other => panic!("Str column got {other:?}"),
                    }
                }
                if dict.is_empty() {
                    dict.push(Arc::from(""));
                }
                ColumnData::Str {
                    dict: Arc::new(dict),
                    codes,
                }
            }
        };
        ColumnVec {
            data,
            validity: if any_null { Some(validity) } else { None },
        }
    }

    /// Keep the rows where `mask` is true (`mask.len() == self.len()`).
    pub fn filter(&self, mask: &[bool]) -> ColumnVec {
        debug_assert_eq!(mask.len(), self.len());
        let keep = mask.iter().filter(|&&m| m).count();
        let validity = self.validity.as_ref().map(|v| {
            let mut out = Vec::with_capacity(keep);
            out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(&b, _)| b));
            out
        });
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(filter_vec(v, mask, keep)),
            ColumnData::Int(v) => ColumnData::Int(filter_vec(v, mask, keep)),
            ColumnData::Float(v) => ColumnData::Float(filter_vec(v, mask, keep)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: filter_vec(codes, mask, keep),
            },
        };
        ColumnVec { data, validity }
    }

    /// Gather rows by index, with repetition allowed (join output assembly).
    pub fn take(&self, indices: &[u32]) -> ColumnVec {
        let validity = self
            .validity
            .as_ref()
            .map(|v| indices.iter().map(|&i| v[i as usize]).collect());
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(take_vec(v, indices)),
            ColumnData::Int(v) => ColumnData::Int(take_vec(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(take_vec(v, indices)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: take_vec(codes, indices),
            },
        };
        ColumnVec { data, validity }
    }

    /// The contiguous sub-column `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnVec {
        let end = start + len;
        let validity = self.validity.as_ref().map(|v| v[start..end].to_vec());
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Int(v) => ColumnData::Int(v[start..end].to_vec()),
            ColumnData::Float(v) => ColumnData::Float(v[start..end].to_vec()),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: codes[start..end].to_vec(),
            },
        };
        ColumnVec { data, validity }
    }

    /// Vertical concatenation of same-typed columns, in order (a drained
    /// subtree's chunks becoming one materialized column). Strings keep
    /// sharing a dictionary when every part already does; otherwise the
    /// dictionaries are merged and the codes rewritten. Panics on an empty
    /// `parts` or mixed data types — the chunks of one stream come from one
    /// compiled schema.
    pub fn concat(parts: &[&ColumnVec]) -> ColumnVec {
        let first = parts.first().expect("concat of at least one column");
        let rows: usize = parts.iter().map(|p| p.len()).sum();
        let validity = parts.iter().any(|p| p.validity.is_some()).then(|| {
            let mut out = Vec::with_capacity(rows);
            for p in parts {
                match &p.validity {
                    Some(v) => out.extend_from_slice(v),
                    None => out.resize(out.len() + p.len(), true),
                }
            }
            out
        });
        macro_rules! flat {
            ($variant:ident) => {{
                let mut out = Vec::with_capacity(rows);
                for p in parts {
                    match &p.data {
                        ColumnData::$variant(v) => out.extend_from_slice(v),
                        _ => panic!(
                            "concat of mixed column types: {:?} after {:?}",
                            p.data_type(),
                            first.data_type()
                        ),
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match &first.data {
            ColumnData::Bool(_) => flat!(Bool),
            ColumnData::Int(_) => flat!(Int),
            ColumnData::Float(_) => flat!(Float),
            ColumnData::Str { dict: shared, .. } => {
                let strs = parts.iter().map(|p| match &p.data {
                    ColumnData::Str { dict, codes } => (dict, codes),
                    _ => panic!(
                        "concat of mixed column types: {:?} after Str",
                        p.data_type()
                    ),
                });
                let mut codes: Vec<u32> = Vec::with_capacity(rows);
                if strs.clone().all(|(dict, _)| Arc::ptr_eq(dict, shared)) {
                    strs.for_each(|(_, c)| codes.extend_from_slice(c));
                    ColumnData::Str {
                        dict: shared.clone(),
                        codes,
                    }
                } else {
                    // Different dictionaries: intern every string once and
                    // rewrite each part's codes into the merged dictionary.
                    let mut merged: Vec<Arc<str>> = Vec::new();
                    let mut index: HashMap<Arc<str>, u32> = HashMap::new();
                    for (dict, part_codes) in strs {
                        let remap: Vec<u32> = dict
                            .iter()
                            .map(|s| {
                                *index.entry(s.clone()).or_insert_with(|| {
                                    merged.push(s.clone());
                                    (merged.len() - 1) as u32
                                })
                            })
                            .collect();
                        codes.extend(part_codes.iter().map(|&c| remap[c as usize]));
                    }
                    ColumnData::Str {
                        dict: Arc::new(merged),
                        codes,
                    }
                }
            }
        };
        ColumnVec { data, validity }
    }

    /// Value equality between a cell of this column and a cell of `other`,
    /// exactly as [`Value`]'s `Eq` would judge the two cells, without
    /// materializing them: numeric values compare across `Int`/`Float`,
    /// `NaN` equals itself and `NULL` equals `NULL`, as in `Value`'s total
    /// order. A join, whose NULL keys match nothing, drops NULL-keyed rows
    /// before it compares keys.
    pub fn cell_eq(&self, row: usize, other: &ColumnVec, other_row: usize) -> bool {
        let (valid, other_valid) = (self.is_valid(row), other.is_valid(other_row));
        if !valid || !other_valid {
            return valid == other_valid;
        }
        match (&self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[row] == b[other_row],
            (ColumnData::Int(a), ColumnData::Int(b)) => a[row] == b[other_row],
            (ColumnData::Float(a), ColumnData::Float(b)) => f64_eq(a[row], b[other_row]),
            (ColumnData::Int(a), ColumnData::Float(b)) => a[row] as f64 == b[other_row],
            (ColumnData::Float(a), ColumnData::Int(b)) => a[row] == b[other_row] as f64,
            (
                ColumnData::Str {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Str {
                    dict: db,
                    codes: cb,
                },
            ) => {
                // Same dictionary: codes decide. Different dictionaries:
                // compare the interned strings.
                if Arc::ptr_eq(da, db) {
                    ca[row] == cb[other_row]
                } else {
                    da[ca[row] as usize] == db[cb[other_row] as usize]
                }
            }
            _ => false,
        }
    }

    /// Value equality between the cell at `row` and a stored `value`,
    /// exactly as `self.value(row) == *value` would judge them — the rules
    /// of [`ColumnVec::cell_eq`] — without materializing the cell, which
    /// for a string would clone its `Arc`. A string cell matches the `Arc`
    /// it was interned as by pointer, before any bytes are compared.
    #[inline]
    pub fn cell_eq_value(&self, row: usize, value: &Value) -> bool {
        if !self.is_valid(row) {
            return value.is_null();
        }
        match (&self.data, value) {
            (ColumnData::Bool(a), Value::Bool(b)) => a[row] == *b,
            (ColumnData::Int(a), Value::Int(b)) => a[row] == *b,
            (ColumnData::Float(a), Value::Float(b)) => f64_eq(a[row], *b),
            (ColumnData::Int(a), Value::Float(b)) => a[row] as f64 == *b,
            (ColumnData::Float(a), Value::Int(b)) => a[row] == *b as f64,
            (ColumnData::Str { dict, codes }, Value::Str(b)) => {
                let a = &dict[codes[row] as usize];
                Arc::ptr_eq(a, b) || a == b
            }
            _ => false,
        }
    }

    /// Feed the cell at `row` into `hasher` exactly as [`Value`]'s `Hash`
    /// implementation would, without materializing the `Value`: cells that
    /// [`ColumnVec::cell_eq`] calls equal hash identically (every number by
    /// its normalized f64 bits, so `Int`/`Float` pairs that compare equal
    /// collide on purpose), so these hashes are safe as key fingerprints.
    pub fn hash_cell<H: std::hash::Hasher>(&self, row: usize, state: &mut H) {
        use std::hash::Hash;
        if !self.is_valid(row) {
            state.write_u8(0);
            return;
        }
        match &self.data {
            ColumnData::Bool(v) => {
                state.write_u8(1);
                v[row].hash(state);
            }
            ColumnData::Int(v) => {
                state.write_u8(2);
                state.write_u64(crate::value::norm_f64_bits(v[row] as f64));
            }
            ColumnData::Float(v) => {
                let f = v[row];
                if f.is_nan() {
                    state.write_u8(4);
                } else {
                    state.write_u8(2);
                    state.write_u64(crate::value::norm_f64_bits(f));
                }
            }
            ColumnData::Str { dict, codes } => {
                state.write_u8(5);
                dict[codes[row] as usize].hash(state);
            }
        }
    }
}

/// Total-order float equality: NaN == NaN (IEEE `==` would break agreement
/// with `Value::eq` and with `hash_cell`, which hashes every NaN
/// identically).
fn f64_eq(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn filter_vec<T: Copy>(v: &[T], mask: &[bool], keep: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(keep);
    out.extend(v.iter().zip(mask).filter(|(_, &m)| m).map(|(&x, _)| x));
    out
}

fn take_vec<T: Copy>(v: &[T], indices: &[u32]) -> Vec<T> {
    indices.iter().map(|&i| v[i as usize]).collect()
}

/// A batch of rows in columnar form: equal-length [`ColumnVec`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnarBatch {
    /// A batch from equal-length columns. `rows` disambiguates the zero-
    /// column case (an aggregate-only projection still has a row count).
    pub fn new(columns: Vec<ColumnVec>, rows: usize) -> ColumnarBatch {
        for c in &columns {
            assert_eq!(c.len(), rows, "ragged batch column");
            if let Some(v) = &c.validity {
                assert_eq!(v.len(), rows, "ragged validity");
            }
        }
        ColumnarBatch { columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &ColumnVec {
        &self.columns[idx]
    }

    /// The columns, by value.
    pub fn into_columns(self) -> Vec<ColumnVec> {
        self.columns
    }

    /// Materialize one row as values (the row-level API bridge).
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Keep the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> ColumnarBatch {
        let rows = mask.iter().filter(|&&m| m).count();
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
            rows,
        }
    }

    /// Gather rows by index (repetition allowed).
    pub fn take(&self, indices: &[u32]) -> ColumnarBatch {
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// The contiguous sub-batch `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> ColumnarBatch {
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.slice(start, len)).collect(),
            rows: len,
        }
    }

    /// Vertical concatenation: the rows of `parts`, in order, as one batch
    /// (see [`ColumnVec::concat`]). `parts` must be non-empty and agree on
    /// their column count and types.
    pub fn concat_rows(parts: &[&ColumnarBatch]) -> ColumnarBatch {
        let first = parts.first().expect("concat of at least one batch");
        let columns = (0..first.columns.len())
            .map(|c| {
                let cols: Vec<&ColumnVec> = parts.iter().map(|p| &p.columns[c]).collect();
                ColumnVec::concat(&cols)
            })
            .collect();
        ColumnarBatch {
            columns,
            rows: parts.iter().map(|p| p.rows).sum(),
        }
    }

    /// Horizontal concatenation (join output: probe columns ++ build
    /// columns). Both batches must have the same row count.
    pub fn concat_columns(mut self, right: ColumnarBatch) -> ColumnarBatch {
        assert_eq!(self.rows, right.rows, "horizontal concat of ragged batches");
        self.columns.extend(right.columns);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::{Table, TableBuilder};

    fn str_table(vals: &[Option<&str>]) -> Table {
        let schema = Schema::new(vec![Field::new("s", DataType::Str)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for v in vals {
            b.push_row(&[v.map_or(Value::Null, Value::str)]).unwrap();
        }
        b.finish().unwrap()
    }

    fn gather(t: &Table, start: u64, end: u64) -> ColumnVec {
        t.batch_range(start, end).unwrap().column(0).clone()
    }

    #[test]
    fn dictionary_round_trip_through_batches() {
        // Storage dict-codes repeated strings; a gathered batch shares the
        // dictionary and every transformation (filter, take, slice)
        // round-trips back to the original values.
        let t = str_table(&[Some("ny"), Some("sf"), None, Some("ny"), Some("ny")]);
        let cv = gather(&t, 0, 5);
        let ColumnData::Str { dict, codes } = &cv.data else {
            panic!("expected dict-coded str column");
        };
        assert!(dict.len() <= 3, "repeats must share codes: {dict:?}");
        assert_eq!(codes.len(), 5);
        assert_eq!(codes[0], codes[3]);
        if let ColumnData::Str { dict: d2, .. } = &gather(&t, 1, 3).data {
            assert!(Arc::ptr_eq(dict, d2), "batches must share the dictionary");
        }
        let expect = [
            Value::str("ny"),
            Value::str("sf"),
            Value::Null,
            Value::str("ny"),
            Value::str("ny"),
        ];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(cv.value(i), *e);
        }
        let filtered = cv.filter(&[true, false, true, false, true]);
        assert_eq!(filtered.value(0), Value::str("ny"));
        assert_eq!(filtered.value(1), Value::Null);
        assert_eq!(filtered.value(2), Value::str("ny"));
        let taken = cv.take(&[4, 4, 1]);
        assert_eq!(taken.value(0), Value::str("ny"));
        assert_eq!(taken.value(2), Value::str("sf"));
        let sliced = cv.slice(1, 2);
        assert_eq!(sliced.value(0), Value::str("sf"));
        assert_eq!(sliced.value(1), Value::Null);
    }

    #[test]
    fn from_values_round_trips_every_type() {
        for (dt, vals) in [
            (
                DataType::Int,
                vec![Value::Int(1), Value::Null, Value::Int(-3)],
            ),
            (
                DataType::Float,
                vec![Value::Float(0.5), Value::Int(2), Value::Null],
            ),
            (
                DataType::Bool,
                vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            ),
            (
                DataType::Str,
                vec![Value::str("a"), Value::str("a"), Value::Null],
            ),
        ] {
            let cv = ColumnVec::from_values(dt, vals.clone().into_iter());
            for (i, v) in vals.iter().enumerate() {
                let got = cv.value(i);
                let want = match (dt, v) {
                    (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
                    _ => v.clone(),
                };
                assert_eq!(got, want, "{dt:?}[{i}]");
            }
        }
    }

    #[test]
    fn cell_eq_and_hash_cross_type_numeric() {
        use std::collections::hash_map::DefaultHasher;
        let a = ColumnVec::new(ColumnData::Int(vec![3, 1 << 60]));
        let b = ColumnVec::new(ColumnData::Float(vec![3.0, 7.5]));
        assert!(a.cell_eq(0, &b, 0));
        assert!(!a.cell_eq(1, &b, 1));
        let hash_of = |c: &ColumnVec, row: usize| {
            let mut h = DefaultHasher::new();
            c.hash_cell(row, &mut h);
            std::hash::Hasher::finish(&h)
        };
        // Int 3 and Float 3.0 are equal, so their cell hashes must agree
        // with each other and with Value's own Hash.
        assert_eq!(hash_of(&a, 0), hash_of(&b, 0));
        let value_hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            std::hash::Hash::hash(v, &mut h);
            std::hash::Hasher::finish(&h)
        };
        assert_eq!(hash_of(&a, 0), value_hash(&Value::Int(3)));
        assert_eq!(hash_of(&b, 1), value_hash(&Value::Float(7.5)));
        assert_eq!(hash_of(&a, 1), value_hash(&Value::Int(1 << 60)));
    }

    #[test]
    fn nan_cells_equal_like_value_does() {
        // Value::total_cmp says NaN == NaN (and hash_cell hashes every NaN
        // identically), so cell_eq must agree — a NaN join key matches a
        // NaN build key exactly as the row executor's Value-keyed map does.
        let a = ColumnVec::new(ColumnData::Float(vec![f64::NAN, 0.0, 1.0]));
        assert!(a.cell_eq(0, &a, 0));
        assert!(!a.cell_eq(0, &a, 2));
        // -0.0 == 0.0 under total_cmp too.
        let b = ColumnVec::new(ColumnData::Float(vec![-0.0]));
        assert!(a.cell_eq(1, &b, 0));
        // Int never equals NaN.
        let i = ColumnVec::new(ColumnData::Int(vec![0]));
        assert!(!i.cell_eq(0, &a, 0));
    }

    #[test]
    fn null_cells_equal_like_value_does() {
        // Value::eq says NULL == NULL, and so does cell_eq: a GROUP BY key
        // groups NULL with NULL. A join drops NULL-keyed rows before it
        // compares keys.
        let a = ColumnVec {
            data: ColumnData::Int(vec![0, 0]),
            validity: Some(vec![false, true]),
        };
        assert_eq!(Value::Null, Value::Null);
        assert!(a.cell_eq(0, &a, 0));
        assert!(!a.cell_eq(0, &a, 1));
        assert!(!a.cell_eq(1, &a, 0));
    }

    #[test]
    fn equal_cells_hash_equally_past_f64_precision() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let big = 1i64 << 53;
        let ints = ColumnVec::new(ColumnData::Int(vec![big + 1, big]));
        let floats = ColumnVec::new(ColumnData::Float(vec![big as f64]));
        let cell_hash = |c: &ColumnVec, row: usize| {
            let mut h = DefaultHasher::new();
            c.hash_cell(row, &mut h);
            h.finish()
        };
        let value_hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        // Int(2^53 + 1) == Float(2^53): they compare as f64, so they must
        // hash alike, as cells and as values.
        assert_eq!(Value::Int(big + 1), Value::Float(big as f64));
        assert!(ints.cell_eq(0, &floats, 0));
        assert_eq!(cell_hash(&ints, 0), cell_hash(&floats, 0));
        assert_eq!(
            value_hash(&Value::Int(big + 1)),
            value_hash(&Value::Float(big as f64))
        );
        for row in 0..2 {
            assert_eq!(cell_hash(&ints, row), value_hash(&ints.value(row)));
        }
        // Int(2^53) and Int(2^53 + 1) share that hash but are two keys.
        assert_ne!(Value::Int(big), Value::Int(big + 1));
        assert!(!ints.cell_eq(0, &ints, 1));
        assert_eq!(cell_hash(&ints, 0), cell_hash(&ints, 1));
    }

    #[test]
    fn a_cell_equals_a_stored_value_as_its_value_would() {
        let big = 1i64 << 53;
        let nulls = |data: ColumnData, valid: &[bool]| ColumnVec {
            data,
            validity: Some(valid.to_vec()),
        };
        let dict =
            |words: &[&str]| -> StrDict { Arc::new(words.iter().map(|&w| w.into()).collect()) };
        // Two dictionaries holding the same strings as different `Arc`s.
        let (d1, d2) = (dict(&["ny", "sf", ""]), dict(&["sf", "ny", "la"]));
        let columns = [
            nulls(
                ColumnData::Bool(vec![true, false, true]),
                &[true, true, false],
            ),
            nulls(
                ColumnData::Int(vec![0, 3, big, big + 1, -7, 0]),
                &[true, true, true, true, true, false],
            ),
            nulls(
                ColumnData::Float(vec![f64::NAN, -0.0, 3.0, big as f64, 2.5, 1.0]),
                &[true, true, true, true, true, false],
            ),
            nulls(
                ColumnData::Str {
                    dict: d1.clone(),
                    codes: vec![0, 1, 2, 0],
                },
                &[true, true, true, false],
            ),
            ColumnVec::new(ColumnData::Str {
                dict: d2,
                codes: vec![0, 1, 2],
            }),
        ];
        // Every cell's own value — the stored key a group would hold, a
        // string sharing its dictionary's `Arc` — and values built apart.
        let mut stored: Vec<Value> = columns
            .iter()
            .flat_map(|c| (0..c.len()).map(move |row| c.value(row)))
            .collect();
        stored.extend([
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Int(3),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(big as f64),
            Value::Float(2.5),
            Value::str("ny"),
            Value::str("sf"),
            Value::str("la"),
            Value::str(""),
        ]);
        let mut matches = 0;
        for c in &columns {
            for row in 0..c.len() {
                for v in &stored {
                    let want = c.value(row) == *v;
                    assert_eq!(c.cell_eq_value(row, v), want, "{:?} vs {v:?}", c.value(row));
                    matches += usize::from(want);
                }
            }
        }
        // NULL, NaN, 0 = -0, Int against Float past 2^53 and strings across
        // dictionaries all found matches, not only a cell its own value.
        assert!(matches > 60, "{matches}");
        assert!(!columns[1].cell_eq_value(2, &Value::Int(big + 1)));
        assert!(columns[1].cell_eq_value(3, &Value::Float(big as f64)));
        assert!(columns[4].cell_eq_value(1, &Value::Str(d1[0].clone())));
    }

    #[test]
    fn concat_stacks_rows_and_merges_dictionaries() {
        let ints = ColumnVec::concat(&[
            &ColumnVec::new(ColumnData::Int(vec![1, 2])),
            &ColumnVec {
                data: ColumnData::Int(vec![0, 4]),
                validity: Some(vec![false, true]),
            },
        ]);
        let got: Vec<Value> = (0..4).map(|i| ints.value(i)).collect();
        assert_eq!(
            got,
            vec![Value::Int(1), Value::Int(2), Value::Null, Value::Int(4)]
        );
        // Same storage dictionary: shared, codes copied verbatim.
        let t = str_table(&[Some("ny"), Some("sf"), None, Some("ny")]);
        let (a, b) = (gather(&t, 0, 2), gather(&t, 2, 4));
        let same = ColumnVec::concat(&[&a, &b]);
        let (ColumnData::Str { dict: d, .. }, ColumnData::Str { dict: da, .. }) =
            (&same.data, &a.data)
        else {
            panic!("expected str columns");
        };
        assert!(Arc::ptr_eq(d, da), "one dictionary stays shared");
        // A foreign dictionary is merged, values preserved in order.
        let other = ColumnVec::from_values(
            DataType::Str,
            [Value::str("la"), Value::str("ny")].into_iter(),
        );
        let mixed = ColumnVec::concat(&[&a, &other, &b]);
        let got: Vec<Value> = (0..6).map(|i| mixed.value(i)).collect();
        assert_eq!(
            got,
            vec![
                Value::str("ny"),
                Value::str("sf"),
                Value::str("la"),
                Value::str("ny"),
                Value::Null,
                Value::str("ny"),
            ]
        );
        let batch = ColumnarBatch::new(vec![a], 2);
        let stacked = ColumnarBatch::concat_rows(&[&batch, &batch]);
        assert_eq!(stacked.rows(), 4);
        assert_eq!(stacked.row_values(3), vec![Value::str("sf")]);
    }

    #[test]
    fn batch_ops() {
        let b = ColumnarBatch::new(
            vec![
                ColumnVec::new(ColumnData::Int(vec![1, 2, 3])),
                ColumnVec::new(ColumnData::Float(vec![0.1, 0.2, 0.3])),
            ],
            3,
        );
        assert_eq!(b.rows(), 3);
        assert_eq!(b.row_values(1), vec![Value::Int(2), Value::Float(0.2)]);
        let f = b.filter(&[true, false, true]);
        assert_eq!(f.rows(), 2);
        assert_eq!(f.row_values(1), vec![Value::Int(3), Value::Float(0.3)]);
        let t = b.take(&[2, 0, 2]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row_values(0)[0], Value::Int(3));
        let s = b.slice(1, 2);
        assert_eq!(s.row_values(0)[0], Value::Int(2));
        let wide = b.clone().concat_columns(b.clone());
        assert_eq!(wide.columns().len(), 4);
        assert_eq!(wide.rows(), 3);
    }
}
