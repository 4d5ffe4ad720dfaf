//! CSV import/export for tables.
//!
//! A small, dependency-free reader/writer so real datasets can be loaded
//! into the engine: RFC-4180-style quoting (`"` with `""` escapes), optional
//! header row, typed parsing against a declared [`Schema`], empty fields as
//! `NULL`.

use std::io::{BufRead, Write};

use crate::error::StorageError;
use crate::schema::{DataType, Schema};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use crate::Result;

/// Options for [`read_csv`].
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Skip the first row as a header (default true).
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
        }
    }
}

/// Read a CSV stream into a [`Table`] named `name` with the given schema.
///
/// Each record must have exactly one field per schema column. Empty fields
/// parse as `NULL`; numeric and boolean fields are parsed by type; parse
/// failures surface as [`StorageError::TypeMismatch`] with row/column
/// context.
pub fn read_csv<R: BufRead>(
    reader: R,
    name: &str,
    schema: Schema,
    options: &CsvOptions,
) -> Result<Table> {
    let mut builder = TableBuilder::new(name, schema.clone());
    let mut records = CsvRecords::new(reader, options.delimiter);
    let mut row_no = 0usize;
    if options.has_header {
        let _ = records.next_record()?; // discard
    }
    while let Some(fields) = records.next_record()? {
        row_no += 1;
        // Tolerate a trailing blank record (e.g. file ends with \n\n).
        if fields.len() == 1 && fields[0].is_empty() {
            continue;
        }
        if fields.len() != schema.len() {
            return Err(StorageError::RaggedColumns {
                table: format!("{name} (csv record {row_no})"),
                lengths: vec![fields.len(), schema.len()],
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (field, col) in fields.iter().zip(schema.fields()) {
            values.push(parse_field(field, col.data_type).map_err(|_| {
                StorageError::TypeMismatch {
                    column: format!("{} (csv record {row_no})", col.qualified_name()),
                    expected: col.data_type,
                    got: format!("{field:?}"),
                }
            })?);
        }
        builder.push_row(&values)?;
    }
    builder.finish()
}

fn parse_field(field: &str, dt: DataType) -> std::result::Result<Value, ()> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match dt {
        DataType::Int => Value::Int(field.trim().parse().map_err(|_| ())?),
        DataType::Float => Value::Float(field.trim().parse().map_err(|_| ())?),
        DataType::Bool => match field.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Value::Bool(true),
            "false" | "f" | "0" => Value::Bool(false),
            _ => return Err(()),
        },
        DataType::Str => Value::str(field),
    })
}

/// Write a table as CSV (header row of bare column names, RFC-4180 quoting,
/// `NULL` as an empty field).
pub fn write_csv<W: Write>(table: &Table, writer: &mut W) -> std::io::Result<()> {
    let schema = table.schema();
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            writer.write_all(b",")?;
        }
        write_field(writer, &f.name)?;
    }
    writer.write_all(b"\n")?;
    for rid in 0..table.row_count() {
        let row = (table.row(rid))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        for (i, v) in row.into_iter().enumerate() {
            if i > 0 {
                writer.write_all(b",")?;
            }
            match v {
                Value::Null => {}
                Value::Str(s) => write_field(writer, &s)?,
                other => write!(writer, "{other}")?,
            }
        }
        writer.write_all(b"\n")?;
    }
    Ok(())
}

fn write_field<W: Write>(writer: &mut W, s: &str) -> std::io::Result<()> {
    if s.contains([',', '"', '\n', '\r']) {
        writer.write_all(b"\"")?;
        writer.write_all(s.replace('"', "\"\"").as_bytes())?;
        writer.write_all(b"\"")
    } else {
        writer.write_all(s.as_bytes())
    }
}

/// Incremental CSV record reader with quote handling.
struct CsvRecords<R> {
    reader: R,
    delimiter: u8,
    buf: Vec<u8>,
    done: bool,
}

impl<R: BufRead> CsvRecords<R> {
    fn new(reader: R, delimiter: u8) -> Self {
        CsvRecords {
            reader,
            delimiter,
            buf: Vec::new(),
            done: false,
        }
    }

    /// Next record, or `None` at end of input. A record may span multiple
    /// physical lines when a quoted field contains newlines.
    fn next_record(&mut self) -> Result<Option<Vec<String>>> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        // Read physical lines until quotes are balanced.
        loop {
            let n = self.reader.read_until(b'\n', &mut self.buf).map_err(|e| {
                StorageError::TypeMismatch {
                    column: "<csv io>".into(),
                    expected: DataType::Str,
                    got: e.to_string(),
                }
            })?;
            if n == 0 {
                self.done = true;
                if self.buf.is_empty() {
                    return Ok(None);
                }
                break;
            }
            // Strip trailing newline / CRLF of this physical line.
            while matches!(self.buf.last(), Some(b'\n') | Some(b'\r')) {
                self.buf.pop();
            }
            let total_quotes = self.buf.iter().filter(|&&b| b == b'"').count();
            if total_quotes.is_multiple_of(2) {
                break;
            }
            // Unbalanced: the newline was inside a quoted field; restore it.
            self.buf.push(b'\n');
        }
        Ok(Some(split_record(&self.buf, self.delimiter)))
    }
}

fn split_record(line: &[u8], delimiter: u8) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut i = 0;
    while i < line.len() {
        let b = line[i];
        if in_quotes {
            if b == b'"' {
                if i + 1 < line.len() && line[i + 1] == b'"' {
                    field.push('"');
                    i += 2;
                    continue;
                }
                in_quotes = false;
            } else {
                field.push(b as char);
            }
        } else if b == b'"' {
            in_quotes = true;
        } else if b == delimiter {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(b as char);
        }
        i += 1;
    }
    fields.push(field);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("active", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_basic() {
        let input = "id,name,price,active\n1,widget,2.5,true\n2,gadget,0.75,false\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, 1).unwrap(), Value::str("widget"));
        assert_eq!(t.value(1, 2).unwrap(), Value::Float(0.75));
        assert_eq!(t.value(1, 3).unwrap(), Value::Bool(false));

        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let t2 = read_csv(Cursor::new(&out), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t2.row_count(), 2);
        for r in 0..2 {
            assert_eq!(t.row(r).unwrap(), t2.row(r).unwrap());
        }
    }

    #[test]
    fn quoted_fields_with_commas_and_escapes() {
        let input = "id,name,price,active\n1,\"a, \"\"quoted\"\" name\",1.0,t\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 1).unwrap(), Value::str("a, \"quoted\" name"));
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let input = "id,name,price,active\n1,\"two\nlines\",1.0,1\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 1).unwrap(), Value::str("two\nlines"));
        // And the writer quotes it back correctly.
        let mut out = Vec::new();
        write_csv(&t, &mut out).unwrap();
        let t2 = read_csv(Cursor::new(&out), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t2.value(0, 1).unwrap(), Value::str("two\nlines"));
    }

    #[test]
    fn empty_fields_are_null() {
        let input = "id,name,price,active\n1,,,\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert!(t.value(0, 1).unwrap().is_null());
        assert!(t.value(0, 2).unwrap().is_null());
        assert!(t.value(0, 3).unwrap().is_null());
    }

    #[test]
    fn no_header_and_custom_delimiter() {
        let input = "1|x|2.0|true\n2|y|3.0|false\n";
        let opts = CsvOptions {
            delimiter: b'|',
            has_header: false,
        };
        let t = read_csv(Cursor::new(input), "t", schema(), &opts).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(1, 1).unwrap(), Value::str("y"));
    }

    #[test]
    fn crlf_line_endings() {
        let input = "id,name,price,active\r\n1,a,1.0,true\r\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.value(0, 1).unwrap(), Value::str("a"));
    }

    #[test]
    fn type_errors_carry_position() {
        let input = "id,name,price,active\nnot_an_int,a,1.0,true\n";
        let err = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("record 1"), "{msg}");
        assert!(msg.contains("id"), "{msg}");
    }

    #[test]
    fn wrong_arity_rejected() {
        let input = "id,name,price,active\n1,a,1.0\n";
        assert!(matches!(
            read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()),
            Err(StorageError::RaggedColumns { .. })
        ));
    }

    #[test]
    fn empty_input_yields_empty_table() {
        let t = read_csv(Cursor::new(""), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.row_count(), 0);
        let opts = CsvOptions {
            has_header: false,
            ..Default::default()
        };
        let t = read_csv(Cursor::new(""), "t", schema(), &opts).unwrap();
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn bool_spellings() {
        let input = "id,name,price,active\n1,a,1.0,T\n2,b,1.0,0\n";
        let t = read_csv(Cursor::new(input), "t", schema(), &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 3).unwrap(), Value::Bool(true));
        assert_eq!(t.value(1, 3).unwrap(), Value::Bool(false));
    }

    #[test]
    fn loaded_table_joins_with_engine() {
        // The loaded table is a first-class citizen: register and query it.
        let input = "id,name,price,active\n1,a,10.0,true\n2,b,20.0,true\n3,c,30.0,false\n";
        let t = read_csv(
            Cursor::new(input),
            "items",
            schema(),
            &CsvOptions::default(),
        )
        .unwrap();
        let mut catalog = crate::Catalog::new();
        catalog.register(t).unwrap();
        assert_eq!(catalog.get("items").unwrap().row_count(), 3);
    }
}
