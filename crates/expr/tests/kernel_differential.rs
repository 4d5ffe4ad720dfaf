//! The compiled kernels against the row interpreter, over generated
//! expressions and batches.
//!
//! Trees of depth ≤ 4 over nullable `Int`/`Float`/`Bool`/`Str` columns,
//! with constants drawn from the edges of each type (NaN, ±0.0, ±∞,
//! `i64::MIN`/`MAX`, zero divisors, `NULL`), evaluated over batches whose
//! lengths straddle the 64-row word boundary. `eval_mask`, `eval_f64` and
//! `eval_column` must equal `eval_predicate`, `eval_f64` and `eval` row by
//! row — floats by bit pattern, any NaN equal to any NaN — and raise
//! `DivisionByZero` exactly when some row's interpretation raises it.

use std::sync::Arc;

use sa_expr::{bind, col, compile, eval, eval_f64, eval_predicate, lit, Expr, ExprError};
use sa_storage::{ColumnData, ColumnVec, ColumnarBatch, DataType, Field, Schema, Value};

/// SplitMix64: a seeded, std-only generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const INTS: &[i64] = &[0, 1, -1, 2, -3, 7, 64, i64::MIN, i64::MAX];
const FLOATS: &[f64] = &[
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -2.5,
    7.0,
    1e300,
    f64::MIN_POSITIVE,
];
const STRS: &[&str] = &["", "a", "ab", "b", "hi", "ho", "zz"];
const LENGTHS: &[usize] = &[0, 1, 63, 64, 65, 4095, 4097];

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    Float,
    Bool,
    Str,
}

/// Column name and type, in schema order.
const COLUMNS: &[(&str, Ty)] = &[
    ("i0", Ty::Int),
    ("i1", Ty::Int),
    ("f0", Ty::Float),
    ("f1", Ty::Float),
    ("b0", Ty::Bool),
    ("b1", Ty::Bool),
    ("s0", Ty::Str),
    ("s1", Ty::Str),
];

fn schema() -> Schema {
    let field = |(name, ty): &(&str, Ty)| {
        let dt = match ty {
            Ty::Int => DataType::Int,
            Ty::Float => DataType::Float,
            Ty::Bool => DataType::Bool,
            Ty::Str => DataType::Str,
        };
        Field::new(name, dt)
    };
    Schema::new(COLUMNS.iter().map(field).collect()).unwrap()
}

fn int(rng: &mut Rng) -> i64 {
    match rng.below(4) {
        0 => rng.next() as i64,
        1 => rng.below(11) as i64 - 5,
        _ => rng.pick(INTS),
    }
}

fn float(rng: &mut Rng) -> f64 {
    match rng.below(4) {
        0 => (rng.next() as i64 as f64) / 1e12,
        1 => rng.below(11) as f64 - 5.0,
        _ => rng.pick(FLOATS),
    }
}

/// One generated column of `rows` and its row-wise values. Its validity is
/// absent, all-present, partly null or all-null, and null rows hold
/// arbitrary data (the kernels must never read it as a value).
fn column(rng: &mut Rng, ty: Ty, rows: usize, nonzero_ints: bool) -> (ColumnVec, Vec<Value>) {
    let null_share = [0.0, 0.0, 0.2, 0.5, 1.0][rng.below(5)];
    let validity: Vec<bool> = (0..rows).map(|_| !rng.chance(null_share)).collect();
    let mut values = Vec::with_capacity(rows);
    let data = match ty {
        Ty::Int => ColumnData::Int(
            (0..rows)
                .map(|_| {
                    let v = int(rng);
                    if nonzero_ints && v == 0 {
                        1
                    } else {
                        v
                    }
                })
                .inspect(|&v| values.push(Value::Int(v)))
                .collect(),
        ),
        Ty::Float => ColumnData::Float(
            (0..rows)
                .map(|_| float(rng))
                .inspect(|&v| values.push(Value::Float(v)))
                .collect(),
        ),
        Ty::Bool => ColumnData::Bool(
            (0..rows)
                .map(|_| rng.chance(0.5))
                .inspect(|&v| values.push(Value::Bool(v)))
                .collect(),
        ),
        Ty::Str => {
            // A shuffled dictionary, so code order is not string order.
            let mut dict: Vec<Arc<str>> = STRS.iter().map(|&s| Arc::from(s)).collect();
            for i in (1..dict.len()).rev() {
                dict.swap(i, rng.below(i + 1));
            }
            let codes: Vec<u32> = (0..rows).map(|_| rng.below(dict.len()) as u32).collect();
            values.extend(codes.iter().map(|&k| Value::Str(dict[k as usize].clone())));
            ColumnData::Str {
                dict: Arc::new(dict),
                codes,
            }
        }
    };
    for (v, &ok) in values.iter_mut().zip(&validity) {
        if !ok {
            *v = Value::Null;
        }
    }
    let validity = (null_share > 0.0 || rng.chance(0.5)).then_some(validity);
    (ColumnVec { data, validity }, values)
}

/// A generated batch and its row-wise view.
fn batch(rng: &mut Rng, rows: usize) -> (ColumnarBatch, Vec<Vec<Value>>) {
    // Some batches keep integer columns free of zeros, so expressions that
    // divide by a column get to run to a value.
    let nonzero_ints = rng.chance(0.5);
    let mut cols = Vec::new();
    let mut row_view = vec![Vec::with_capacity(COLUMNS.len()); rows];
    for &(_, ty) in COLUMNS {
        let (c, values) = column(rng, ty, rows, nonzero_ints);
        cols.push(c);
        for (row, v) in row_view.iter_mut().zip(values) {
            row.push(v);
        }
    }
    (ColumnarBatch::new(cols, rows), row_view)
}

fn leaf(rng: &mut Rng, ty: Ty) -> Expr {
    if rng.chance(0.1) {
        return lit(Value::Null);
    }
    if rng.chance(0.5) {
        let names: Vec<&str> = COLUMNS.iter().filter(|c| c.1 == ty).map(|c| c.0).collect();
        return col(rng.pick(&names));
    }
    match ty {
        Ty::Int => lit(int(rng)),
        Ty::Float => lit(float(rng)),
        Ty::Bool => lit(rng.chance(0.5)),
        Ty::Str => lit(rng.pick(STRS)),
    }
}

/// A random well-typed tree of type `ty` with at most `depth` levels below
/// its root (any operand may also be the `NULL` literal).
fn expr(rng: &mut Rng, ty: Ty, depth: usize) -> Expr {
    if depth == 0 || ty == Ty::Str || rng.chance(0.2) {
        return leaf(rng, ty);
    }
    let d = depth - 1;
    match ty {
        Ty::Int => match rng.below(4) {
            0 => expr(rng, Ty::Int, d).add(expr(rng, Ty::Int, d)),
            1 => expr(rng, Ty::Int, d).sub(expr(rng, Ty::Int, d)),
            2 => expr(rng, Ty::Int, d).mul(expr(rng, Ty::Int, d)),
            _ => expr(rng, Ty::Int, d).neg(),
        },
        Ty::Float => {
            // Int ÷ Int is a float (and the one erroring kernel); otherwise
            // at least one side is a float, the other may be an int.
            if rng.chance(0.3) {
                return expr(rng, Ty::Int, d).div(expr(rng, Ty::Int, d));
            }
            if rng.chance(0.15) {
                return expr(rng, Ty::Float, d).neg();
            }
            let other = if rng.chance(0.3) { Ty::Int } else { Ty::Float };
            let (l, r) = if rng.chance(0.5) {
                (expr(rng, Ty::Float, d), expr(rng, other, d))
            } else {
                (expr(rng, other, d), expr(rng, Ty::Float, d))
            };
            match rng.below(4) {
                0 => l.add(r),
                1 => l.sub(r),
                2 => l.mul(r),
                _ => l.div(r),
            }
        }
        Ty::Bool => match rng.below(6) {
            0 | 1 => {
                let (lt, rt) = rng.pick(&[
                    (Ty::Int, Ty::Int),
                    (Ty::Float, Ty::Float),
                    (Ty::Int, Ty::Float),
                    (Ty::Float, Ty::Int),
                    (Ty::Str, Ty::Str),
                    (Ty::Bool, Ty::Bool),
                ]);
                let (l, r) = (expr(rng, lt, d), expr(rng, rt, d));
                match rng.below(6) {
                    0 => l.eq(r),
                    1 => l.not_eq(r),
                    2 => l.lt(r),
                    3 => l.lt_eq(r),
                    4 => l.gt(r),
                    _ => l.gt_eq(r),
                }
            }
            2 => expr(rng, Ty::Bool, d).and(expr(rng, Ty::Bool, d)),
            3 => expr(rng, Ty::Bool, d).or(expr(rng, Ty::Bool, d)),
            4 => expr(rng, Ty::Bool, d).not(),
            _ => leaf(rng, Ty::Bool),
        },
        Ty::Str => unreachable!("strings are leaves"),
    }
}

/// Same value, floats by bit pattern with any NaN equal to any NaN.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn same_f64(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => same(&Value::Float(x), &Value::Float(y)),
        (None, None) => true,
        _ => false,
    }
}

/// The interpreter's verdict over every row: `None` if some row divides
/// an integer by zero, else each row's result.
fn interpret<T>(rows: &[Vec<Value>], f: impl Fn(&[Value]) -> sa_expr::Result<T>) -> Option<Vec<T>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        match f(row) {
            Ok(v) => out.push(v),
            Err(ExprError::DivisionByZero) => return None,
            Err(e) => panic!("interpreter raised {e}"),
        }
    }
    Some(out)
}

/// Check one expression on one batch; returns whether some row raised.
fn check(e: &Expr, schema: &Schema, batch: &ColumnarBatch, rows: &[Vec<Value>]) -> bool {
    let bound = bind(e, schema).unwrap_or_else(|err| panic!("{e}: {err}"));
    let compiled = compile(e, schema).unwrap_or_else(|err| panic!("{e}: {err}"));
    let n = batch.rows();
    let ctx = |what: &str| format!("{what} of {e} over {n} rows");

    let want = interpret(rows, |r| eval(&bound, r));
    match (compiled.eval_column(batch), &want) {
        (Err(err), None) => assert_eq!(err, ExprError::DivisionByZero, "{}", ctx("eval_column")),
        (Ok(got), Some(want)) => {
            assert_eq!(got.len(), n, "{}", ctx("eval_column"));
            for (i, w) in want.iter().enumerate() {
                let g = got.value(i);
                assert!(
                    same(&g, w),
                    "{} @ row {i}: {g:?} ≠ {w:?}",
                    ctx("eval_column")
                );
            }
        }
        (got, want) => panic!(
            "{}: compiled {got:?}, interpreter raised: {}",
            ctx("eval_column"),
            want.is_none()
        ),
    }

    let ty = compiled.data_type();
    if matches!(ty, Some(DataType::Bool) | None) {
        let want = interpret(rows, |r| eval_predicate(&bound, r));
        match (compiled.eval_mask(batch), want) {
            (Err(err), None) => assert_eq!(err, ExprError::DivisionByZero, "{}", ctx("eval_mask")),
            (Ok(got), Some(want)) => assert_eq!(got, want, "{}", ctx("eval_mask")),
            (got, want) => panic!(
                "{}: compiled {got:?}, interpreter raised: {}",
                ctx("eval_mask"),
                want.is_none()
            ),
        }
    }
    if matches!(ty, Some(DataType::Int | DataType::Float) | None) {
        let want = interpret(rows, |r| eval_f64(&bound, r));
        match (compiled.eval_f64(batch), want) {
            (Err(err), None) => assert_eq!(err, ExprError::DivisionByZero, "{}", ctx("eval_f64")),
            (Ok((vals, validity)), Some(want)) => {
                assert_eq!(vals.len(), n, "{}", ctx("eval_f64"));
                for (i, w) in want.into_iter().enumerate() {
                    let g = validity.as_ref().is_none_or(|v| v[i]).then_some(vals[i]);
                    assert!(
                        same_f64(g, w),
                        "{} @ row {i}: {g:?} ≠ {w:?}",
                        ctx("eval_f64")
                    );
                }
            }
            (got, want) => panic!(
                "{}: compiled {got:?}, interpreter raised: {}",
                ctx("eval_f64"),
                want.is_none()
            ),
        }
    }
    want.is_none()
}

/// Three batches of every length.
fn batches(rng: &mut Rng) -> Vec<(ColumnarBatch, Vec<Vec<Value>>)> {
    LENGTHS
        .iter()
        .flat_map(|&n| (0..3).map(move |_| n))
        .map(|n| batch(rng, n))
        .collect()
}

#[test]
fn compiled_kernels_equal_the_interpreter() {
    let schema = schema();
    let mut rng = Rng(0x5A_0001);
    // The short batches see every expression, the two word-straddling
    // long ones every eighth.
    let batches = batches(&mut rng);
    let (mut checked, mut raised) = (0usize, 0usize);
    for i in 0..3000 {
        let ty = rng.pick(&[Ty::Bool, Ty::Bool, Ty::Int, Ty::Float, Ty::Str]);
        let e = expr(&mut rng, ty, 4);
        for (b, rows) in &batches {
            if b.rows() < 4095 || i % 8 == 0 {
                raised += check(&e, &schema, b, rows) as usize;
                checked += 1;
            }
        }
    }
    // The generator must reach both sides of the error contract.
    assert!(raised > checked / 50, "{raised} of {checked} raised");
    assert!(raised < checked / 2, "{raised} of {checked} raised");
}

/// Trees the generator rarely builds: a left operand with one verdict on
/// every valid row short-circuits a whole batch past a division by a zero
/// literal, so on a null-free column only the error bits past the batch's
/// last row could still raise.
#[test]
fn whole_batch_short_circuits_equal_the_interpreter() {
    let schema = schema();
    let batches = batches(&mut Rng(0x5A_0002));
    let div0 = || lit(7i64).div(lit(0i64)).gt(lit(1.0));
    for e in [
        col("f0").eq(col("f0")).or(div0()),
        col("f0").not_eq(col("f0")).and(div0()),
        col("b0")
            .eq(col("b0"))
            .or(col("i0").div(lit(0i64)).gt(lit(1i64))),
        col("s0").lt(col("s0")).and(div0()),
    ] {
        for (b, rows) in &batches {
            check(&e, &schema, b, rows);
        }
    }
}
