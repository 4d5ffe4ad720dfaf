//! Binding and evaluation of expressions against rows.
//!
//! * [`bind`] resolves column names to row offsets against a
//!   [`Schema`] and type-checks the tree;
//! * [`eval`] computes a [`Value`] for one row — the **reference
//!   interpreter**: queries run on the compiled kernels of
//!   [`crate::compile()`], which are tested cell for cell against it.
//!
//! SQL three-valued logic: any comparison or arithmetic with `NULL` yields
//! `NULL`; `AND`/`OR`/`NOT` follow Kleene logic; a `NULL` predicate result is
//! treated as *false* by filters (that decision lives in the executor).

use sa_storage::{DataType, Schema, Value};

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::Result;

/// Resolve all column references in `expr` against `schema` and type-check.
/// Returns a new tree whose columns are [`Expr::BoundColumn`]s.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<Expr> {
    let bound = bind_rec(expr, schema)?;
    // Type-check eagerly so errors surface at plan time, not per-row.
    data_type(&bound, schema)?;
    Ok(bound)
}

fn bind_rec(expr: &Expr, schema: &Schema) -> Result<Expr> {
    Ok(match expr {
        Expr::Column(name) => Expr::BoundColumn {
            index: schema.index_of(name)?,
            name: name.clone(),
        },
        Expr::BoundColumn { index, name } => {
            // Re-binding against a new schema: resolve by name again.
            let _ = index;
            Expr::BoundColumn {
                index: schema.index_of(name)?,
                name: name.clone(),
            }
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_rec(left, schema)?),
            right: Box::new(bind_rec(right, schema)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_rec(expr, schema)?),
        },
    })
}

/// Static result type of a bound expression (`None` encodes "nullable
/// unknown", which only happens for the bare `NULL` literal).
pub fn data_type(expr: &Expr, schema: &Schema) -> Result<Option<DataType>> {
    Ok(match expr {
        Expr::Column(name) => Some(schema.field(schema.index_of(name)?).data_type),
        Expr::BoundColumn { index, .. } => Some(schema.field(*index).data_type),
        Expr::Literal(v) => v.data_type(),
        Expr::Binary { op, left, right } => {
            let lt = data_type(left, schema)?;
            let rt = data_type(right, schema)?;
            match (lt, rt) {
                (None, _) | (_, None) => None,
                (Some(l), Some(r)) => Some(binary_result_type(*op, l, r)?),
            }
        }
        Expr::Unary { op, expr } => {
            let t = data_type(expr, schema)?;
            match (op, t) {
                (_, None) => None,
                (UnOp::Neg, Some(t)) if t.is_numeric() => Some(t),
                (UnOp::Not, Some(DataType::Bool)) => Some(DataType::Bool),
                (op, Some(t)) => {
                    return Err(ExprError::TypeError {
                        message: format!("{op:?} applied to {t}"),
                    })
                }
            }
        }
    })
}

fn binary_result_type(op: BinOp, l: DataType, r: DataType) -> Result<DataType> {
    use DataType::*;
    if op.is_arithmetic() {
        return match (l, r) {
            (Int, Int) if op != BinOp::Div => Ok(Int),
            // SQL-ish choice: division always yields Float.
            (Int, Int) => Ok(Float),
            (Int, Float) | (Float, Int) | (Float, Float) => Ok(Float),
            _ => Err(ExprError::TypeError {
                message: format!("{l} {} {r}", op.symbol()),
            }),
        };
    }
    if op.is_comparison() {
        let comparable = matches!(
            (l, r),
            (Int, Int) | (Int, Float) | (Float, Int) | (Float, Float) | (Str, Str) | (Bool, Bool)
        );
        return if comparable {
            Ok(Bool)
        } else {
            Err(ExprError::TypeError {
                message: format!("{l} {} {r}", op.symbol()),
            })
        };
    }
    // Logical.
    if l == Bool && r == Bool {
        Ok(Bool)
    } else {
        Err(ExprError::TypeError {
            message: format!("{l} {} {r}", op.symbol()),
        })
    }
}

/// Evaluate a bound expression against one row.
pub fn eval(expr: &Expr, row: &[Value]) -> Result<Value> {
    Ok(match expr {
        Expr::Column(name) => {
            return Err(ExprError::Unbound { name: name.clone() });
        }
        Expr::BoundColumn { index, .. } => row[*index].clone(),
        Expr::Literal(v) => v.clone(),
        Expr::Binary { op, left, right } => {
            // Short-circuit Kleene AND/OR before evaluating the right side.
            if *op == BinOp::And || *op == BinOp::Or {
                return eval_logical(*op, left, right, row);
            }
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            if op.is_arithmetic() {
                eval_arith(*op, &l, &r)?
            } else {
                eval_compare(*op, &l, &r)?
            }
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, row)?;
            match (op, v) {
                (_, Value::Null) => Value::Null,
                (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                (op, v) => {
                    return Err(ExprError::TypeError {
                        message: format!("{op:?} applied to {v:?}"),
                    })
                }
            }
        }
    })
}

fn eval_logical(op: BinOp, left: &Expr, right: &Expr, row: &[Value]) -> Result<Value> {
    let l = eval(left, row)?;
    match (op, &l) {
        (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = eval(right, row)?;
    Ok(match (op, l, r) {
        (BinOp::And, Value::Bool(a), Value::Bool(b)) => Value::Bool(a && b),
        (BinOp::Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(a || b),
        // Kleene: NULL AND false = false; NULL OR true = true; else NULL.
        (BinOp::And, Value::Null, Value::Bool(false)) => Value::Bool(false),
        (BinOp::Or, Value::Null, Value::Bool(true)) => Value::Bool(true),
        (BinOp::And, Value::Null, _) | (BinOp::And, _, Value::Null) => Value::Null,
        (BinOp::Or, Value::Null, _) | (BinOp::Or, _, Value::Null) => Value::Null,
        (op, l, r) => {
            return Err(ExprError::TypeError {
                message: format!("{l:?} {} {r:?}", op.symbol()),
            })
        }
    })
}

fn eval_arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use Value::*;
    Ok(match (l, r) {
        (Int(a), Int(b)) => match op {
            BinOp::Add => Int(a.wrapping_add(*b)),
            BinOp::Sub => Int(a.wrapping_sub(*b)),
            BinOp::Mul => Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    return Err(ExprError::DivisionByZero);
                }
                Float(*a as f64 / *b as f64)
            }
            _ => unreachable!("arithmetic op"),
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(ExprError::TypeError {
                        message: format!("{l:?} {} {r:?}", op.symbol()),
                    })
                }
            };
            match op {
                BinOp::Add => Float(a + b),
                BinOp::Sub => Float(a - b),
                BinOp::Mul => Float(a * b),
                BinOp::Div => Float(a / b),
                _ => unreachable!("arithmetic op"),
            }
        }
    })
}

fn eval_compare(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Cross-type numeric comparison is meaningful; everything else requires
    // identical type tags (checked by the binder, re-checked cheaply here).
    let comparable = matches!(
        (l, r),
        (
            Value::Int(_) | Value::Float(_),
            Value::Int(_) | Value::Float(_)
        ) | (Value::Str(_), Value::Str(_))
            | (Value::Bool(_), Value::Bool(_))
    );
    if !comparable {
        return Err(ExprError::TypeError {
            message: format!("{l:?} {} {r:?}", op.symbol()),
        });
    }
    let ord = l.total_cmp(r);
    let b = match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        _ => unreachable!("comparison op"),
    };
    Ok(Value::Bool(b))
}

/// Evaluate a bound predicate for filtering: `NULL` counts as not-passing.
pub fn eval_predicate(expr: &Expr, row: &[Value]) -> Result<bool> {
    match eval(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(ExprError::TypeError {
            message: format!("predicate evaluated to non-boolean {other:?}"),
        }),
    }
}

/// Evaluate a bound numeric expression as `f64` (`NULL` → `None`).
pub fn eval_f64(expr: &Expr, row: &[Value]) -> Result<Option<f64>> {
    match eval(expr, row)? {
        Value::Null => Ok(None),
        v => v.as_f64().map(Some).ok_or_else(|| ExprError::TypeError {
            message: format!("expected numeric result, got {v:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{col, lit};
    use sa_storage::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("flag", DataType::Bool),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(6),
            Value::Float(0.5),
            Value::str("hi"),
            Value::Bool(true),
        ]
    }

    #[test]
    fn arithmetic_and_binding() {
        let e = bind(&col("a").mul(col("b")), &schema()).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Float(3.0));
        let e = bind(&col("a").add(lit(1i64)), &schema()).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Int(7));
    }

    #[test]
    fn int_division_yields_float() {
        let e = bind(&col("a").div(lit(4i64)), &schema()).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Float(1.5));
        assert_eq!(data_type(&e, &schema()).unwrap(), Some(DataType::Float));
    }

    #[test]
    fn int_division_by_zero_errors() {
        let e = bind(&col("a").div(lit(0i64)), &schema()).unwrap();
        assert_eq!(eval(&e, &row()).unwrap_err(), ExprError::DivisionByZero);
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        for (e, expect) in [
            (col("a").gt(lit(5i64)), true),
            (col("a").lt(lit(5i64)), false),
            (col("a").eq(lit(6.0)), true), // cross-type numeric
            (col("s").eq(lit("hi")), true),
            (col("s").not_eq(lit("ho")), true),
            (col("a").gt_eq(lit(6i64)), true),
            (col("a").lt_eq(lit(5i64)), false),
        ] {
            let b = bind(&e, &s).unwrap();
            assert_eq!(eval(&b, &r).unwrap(), Value::Bool(expect), "{e}");
        }
    }

    #[test]
    fn null_propagates_through_arith_and_compare() {
        let s = schema();
        let mut r = row();
        r[0] = Value::Null;
        let e = bind(&col("a").add(lit(1i64)), &s).unwrap();
        assert!(eval(&e, &r).unwrap().is_null());
        let e = bind(&col("a").eq(lit(1i64)), &s).unwrap();
        assert!(eval(&e, &r).unwrap().is_null());
        assert!(!eval_predicate(&e, &r).unwrap()); // NULL filters out
    }

    #[test]
    fn kleene_logic() {
        let s = schema();
        let null_pred = col("a").eq(lit(Value::Null)); // always NULL
        let e = bind(&null_pred.clone().and(lit(false)), &s).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Bool(false));
        let e = bind(&null_pred.clone().or(lit(true)), &s).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Bool(true));
        let e = bind(&null_pred.clone().and(lit(true)), &s).unwrap();
        assert!(eval(&e, &row()).unwrap().is_null());
        let e = bind(&null_pred.or(lit(false)), &s).unwrap();
        assert!(eval(&e, &row()).unwrap().is_null());
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // false AND (1/0) must not evaluate the division.
        let s = schema();
        let e = bind(&lit(false).and(col("a").div(lit(0i64)).gt(lit(0i64))), &s).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Bool(false));
        let e = bind(&lit(true).or(col("a").div(lit(0i64)).gt(lit(0i64))), &s).unwrap();
        assert_eq!(eval(&e, &row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn type_errors_caught_at_bind_time() {
        let s = schema();
        assert!(bind(&col("s").add(lit(1i64)), &s).is_err());
        assert!(bind(&col("a").and(col("flag")), &s).is_err());
        assert!(bind(&col("s").eq(lit(1i64)), &s).is_err());
        assert!(bind(&col("flag").neg(), &s).is_err());
        assert!(bind(&col("a").not(), &s).is_err());
        assert!(bind(&col("missing"), &s).is_err());
    }

    #[test]
    fn unbound_evaluation_rejected() {
        assert!(matches!(
            eval(&col("a"), &row()),
            Err(ExprError::Unbound { .. })
        ));
    }

    #[test]
    fn paper_aggregate_expression() {
        // l_discount * (1.0 - l_tax) over a row with discount=0.05, tax=0.02.
        let s = Schema::new(vec![
            Field::new("l_discount", DataType::Float),
            Field::new("l_tax", DataType::Float),
        ])
        .unwrap();
        let e = bind(&col("l_discount").mul(lit(1.0).sub(col("l_tax"))), &s).unwrap();
        let got = eval_f64(&e, &[Value::Float(0.05), Value::Float(0.02)])
            .unwrap()
            .unwrap();
        assert!((got - 0.049).abs() < 1e-12);
    }

    #[test]
    fn eval_f64_null_and_type() {
        let s = schema();
        let e = bind(&col("a"), &s).unwrap();
        assert_eq!(eval_f64(&e, &row()).unwrap(), Some(6.0));
        let mut r = row();
        r[0] = Value::Null;
        assert_eq!(eval_f64(&e, &r).unwrap(), None);
        let e = bind(&col("s"), &s).unwrap();
        assert!(eval_f64(&e, &row()).is_err());
    }

    #[test]
    fn predicate_requires_bool() {
        let s = schema();
        let e = bind(&col("a"), &s).unwrap();
        assert!(eval_predicate(&e, &row()).is_err());
    }

    #[test]
    fn rebinding_against_new_schema() {
        // Bind against one schema, then rebind against a wider one.
        let s1 = schema();
        let e = bind(&col("b").mul(lit(2.0)), &s1).unwrap();
        let s2 = Schema::new(vec![
            Field::new("z", DataType::Int),
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("flag", DataType::Bool),
        ])
        .unwrap();
        let e2 = bind(&e, &s2).unwrap();
        let r2 = vec![
            Value::Int(0),
            Value::Int(6),
            Value::Float(0.5),
            Value::str("hi"),
            Value::Bool(true),
        ];
        assert_eq!(eval(&e2, &r2).unwrap(), Value::Float(1.0));
    }
}
