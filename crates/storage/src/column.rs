//! The builder's column buffers.
//!
//! [`crate::TableBuilder`] encodes each pushed value straight into the bytes
//! its column's `.sac` segments will hold (see [`crate::format`]):
//! little-endian words or packed bits, a validity bit per row, and for
//! strings a code into a dictionary that interns each distinct string
//! once. Every segment grows page by page inside one arena, the buffer
//! that becomes the table's image: [`crate::format::lay_out`] moves the
//! pages into segment order in place, so a build touches each byte of its
//! table's memory once and holds one table, not two.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::StorageError;
use crate::format::PAGE_SIZE;
use crate::schema::DataType;
use crate::value::Value;
use crate::Result;

/// A segment under construction: the arena pages it owns, in order.
#[derive(Debug, Default)]
pub(crate) struct Pages(pub(crate) Vec<usize>);

impl Pages {
    /// The page holding byte `at`, appended (zeroed) to the arena on first
    /// touch.
    fn page<'a>(&mut self, arena: &'a mut Vec<u8>, at: usize) -> &'a mut [u8] {
        if at / PAGE_SIZE == self.0.len() {
            self.0.push(arena.len() / PAGE_SIZE);
            arena.resize(arena.len() + PAGE_SIZE, 0);
        }
        let start = self.0[at / PAGE_SIZE] * PAGE_SIZE;
        &mut arena[start..start + PAGE_SIZE]
    }

    /// Write `bytes` at byte `at`; a word never straddles two pages, since
    /// every width divides the page size.
    fn put(&mut self, arena: &mut Vec<u8>, at: usize, bytes: &[u8]) {
        self.page(arena, at)[at % PAGE_SIZE..][..bytes.len()].copy_from_slice(bytes);
    }

    /// Set bit `i` (bit `i % 8` of byte `i / 8`) to `bit`.
    fn set_bit(&mut self, arena: &mut Vec<u8>, i: usize, bit: bool) {
        self.page(arena, i / 8)[i / 8 % PAGE_SIZE] |= u8::from(bit) << (i % 8);
    }
}

/// One column's rows as [`crate::TableBuilder`] receives them, until
/// [`crate::format::lay_out`] writes them into the table's image.
#[derive(Debug)]
pub(crate) struct ColumnBuffer {
    /// The qualified column name, for error messages.
    name: String,
    pub(crate) data_type: DataType,
    pub(crate) rows: usize,
    /// The data segment.
    pub(crate) data: Pages,
    /// One bit per row, set when the row is present; written from the
    /// first null on, since a column without nulls has no validity segment.
    pub(crate) validity: Pages,
    pub(crate) has_null: bool,
    /// Str columns: the dictionary, code → string, and its inverse.
    pub(crate) dict: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl ColumnBuffer {
    pub(crate) fn new(name: String, data_type: DataType) -> ColumnBuffer {
        ColumnBuffer {
            name,
            data_type,
            rows: 0,
            data: Pages::default(),
            validity: Pages::default(),
            has_null: false,
            dict: vec![],
            index: HashMap::new(),
        }
    }

    /// The dictionary code of `s`, interning it on first sight.
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.dict.len()).expect("dictionary exceeds u32 codes");
        self.dict.push(s.clone());
        self.index.insert(s.clone(), code);
        code
    }

    /// Append one value. `Null` is accepted for any type; `Int` widens into
    /// a `Float` column. Anything else must match the declared type.
    pub(crate) fn push(&mut self, arena: &mut Vec<u8>, v: &Value) -> Result<()> {
        let i = self.rows;
        let data = &mut self.data;
        match (v, self.data_type) {
            (Value::Null, DataType::Bool) => data.set_bit(arena, i, false),
            (Value::Null, DataType::Int | DataType::Float) => data.put(arena, 8 * i, &[0; 8]),
            (Value::Null, DataType::Str) => {
                let code = self.intern(&Arc::from(""));
                self.data.put(arena, 4 * i, &code.to_le_bytes());
            }
            (Value::Bool(b), DataType::Bool) => data.set_bit(arena, i, *b),
            (Value::Int(x), DataType::Int) => data.put(arena, 8 * i, &x.to_le_bytes()),
            (Value::Int(x), DataType::Float) => data.put(arena, 8 * i, &(*x as f64).to_le_bytes()),
            (Value::Float(x), DataType::Float) => data.put(arena, 8 * i, &x.to_le_bytes()),
            (Value::Str(s), DataType::Str) => {
                let code = self.intern(s);
                self.data.put(arena, 4 * i, &code.to_le_bytes());
            }
            _ => {
                return Err(StorageError::TypeMismatch {
                    column: self.name.clone(),
                    expected: self.data_type,
                    got: format!("{v:?}"),
                })
            }
        }
        if v.is_null() && !self.has_null {
            // The first null: the rows before it were all present.
            self.has_null = true;
            (0..i).for_each(|r| self.validity.set_bit(arena, r, true));
        }
        if self.has_null {
            self.validity.set_bit(arena, i, !v.is_null());
        }
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::{Table, TableBuilder};

    fn one_column(dt: DataType, vals: &[Value]) -> Result<Table> {
        let schema = Schema::new(vec![Field::new("x", dt)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        for v in vals {
            b.push_row(std::slice::from_ref(v))?;
        }
        b.finish()
    }

    fn values(t: &Table) -> Vec<Value> {
        (0..t.row_count()).map(|r| t.value(r, 0).unwrap()).collect()
    }

    #[test]
    fn build_int_column() {
        let t = one_column(DataType::Int, &[Value::Int(1), Value::Null, Value::Int(3)]).unwrap();
        assert_eq!(t.row_count(), 3);
        assert_eq!(values(&t), vec![Value::Int(1), Value::Null, Value::Int(3)]);
    }

    #[test]
    fn all_valid_drops_validity() {
        // A column without nulls has no validity segment: one page less.
        let valid = one_column(DataType::Float, &[Value::Float(1.5), Value::Float(2.5)]).unwrap();
        let null = one_column(DataType::Float, &[Value::Float(1.5), Value::Null]).unwrap();
        let len = |t: &Table| t.image().bytes().len();
        assert_eq!(len(&null) - len(&valid), crate::format::PAGE_SIZE);
        assert_eq!(valid.batch_range(0, 2).unwrap().column(0).validity, None);
    }

    #[test]
    fn int_widens_to_float_column() {
        let t = one_column(DataType::Float, &[Value::Int(4)]).unwrap();
        assert_eq!(t.value(0, 0).unwrap(), Value::Float(4.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = one_column(DataType::Int, &[Value::str("oops")]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert!(err.to_string().contains("t.x"));
    }

    #[test]
    fn float_into_int_column_rejected() {
        assert!(one_column(DataType::Int, &[Value::Float(1.5)]).is_err());
    }

    #[test]
    fn string_column() {
        let t = one_column(DataType::Str, &[Value::str("a"), Value::Null]).unwrap();
        assert_eq!(values(&t), vec![Value::str("a"), Value::Null]);
        assert_eq!(t.schema().fields()[0].data_type, DataType::Str);
    }

    #[test]
    fn bool_column() {
        let t = one_column(DataType::Bool, &[Value::Bool(true)]).unwrap();
        assert_eq!(values(&t), vec![Value::Bool(true)]);
    }
}
