//! Expression compilation: type-resolve once, evaluate over columns.
//!
//! [`compile`] turns a (bindable) [`Expr`] into a [`CompiledExpr`] — a tree
//! of *typed kernels* that evaluate directly over the typed column vectors
//! of a [`ColumnarBatch`]. All name resolution, type dispatch and constant
//! folding happen once at compile time.
//!
//! Every per-row boolean is a **bit word**: values, validity and the
//! division-by-zero mask are packed 64 rows to a `u64`. A comparison picks
//! its loop once per batch — by operator and by operand shape (slice or
//! constant) — and runs one monomorphic pass that packs a word at a time;
//! Kleene `AND`/`OR`/`NOT`, validity merges and short-circuit error
//! clearing are word `&`/`|`/`!`. Arithmetic runs over `i64`/`f64` slices
//! with the operator chosen outside the loop. Words become `Vec<bool>` only
//! where [`CompiledExpr::eval_mask`], [`CompiledExpr::eval_f64`] and
//! [`CompiledExpr::eval_column`] return.
//!
//! Semantics are **bit-identical to the row interpreter** ([`crate::eval()`]):
//!
//! * SQL three-valued logic — `NULL` poisons arithmetic and comparisons,
//!   `AND`/`OR`/`NOT` are Kleene — carried by validity words;
//! * comparisons keep [`Value::total_cmp`](sa_storage::Value::total_cmp)'s
//!   float order, not IEEE's: NaN sorts greatest and equals itself, and
//!   `-0.0 = +0.0`;
//! * `Int op Int` stays in wrapping `i64` arithmetic (and exact `i64`
//!   comparison); any float operand promotes the whole operation to `f64`,
//!   exactly like [`crate::eval()`]'s value-level promotion;
//! * integer division by zero is the one *runtime* error an already-bound
//!   expression can raise. The row interpreter raises it for the first row
//!   that actually evaluates the division — in particular, a short-circuited
//!   `AND`/`OR` operand never raises. Kernels carry an error mask that
//!   `AND`/`OR` clear on short-circuited rows, so batch evaluation errors
//!   for exactly the rows the row interpreter would have.
//!
//! Batch entry points: [`CompiledExpr::eval_mask`] (filter selection),
//! [`CompiledExpr::eval_f64`] (numeric aggregate inputs) and
//! [`CompiledExpr::eval_column`] (projection).

use std::sync::Arc;

use sa_storage::{ColumnData, ColumnVec, ColumnarBatch, DataType, Schema};

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::eval::bind;
use crate::Result;

/// Arithmetic operators on numeric kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison operators on typed kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    fn of(op: BinOp) -> CmpOp {
        match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::NotEq => CmpOp::NotEq,
            BinOp::Lt => CmpOp::Lt,
            BinOp::LtEq => CmpOp::LtEq,
            BinOp::Gt => CmpOp::Gt,
            BinOp::GtEq => CmpOp::GtEq,
            _ => unreachable!("comparison op"),
        }
    }

    /// The operator with its operands swapped: `a op b ⟺ b op.flip() a`.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            op @ (CmpOp::Eq | CmpOp::NotEq) => op,
        }
    }

    /// The verdict on a compile-time ordering (constant folding and
    /// per-dictionary-entry tables — never per row).
    fn judge(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::NotEq => !ord.is_eq(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::LtEq => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::GtEq => ord.is_ge(),
        }
    }
}

/// Integer-typed kernel (evaluates to `i64` per row).
#[derive(Debug, Clone)]
enum IntK {
    Col(usize),
    Const(i64),
    Bin(ArithOp, Box<IntK>, Box<IntK>),
    Neg(Box<IntK>),
}

/// Float-typed kernel (evaluates to `f64` per row). Integer subtrees are
/// widened via [`FloatK::FromInt`]; `Int ÷ Int` lives here ([`FloatK::DivInt`],
/// the one kernel with a runtime error mask).
#[derive(Debug, Clone)]
enum FloatK {
    Col(usize),
    Const(f64),
    FromInt(Box<IntK>),
    Bin(ArithOp, Box<FloatK>, Box<FloatK>),
    DivInt(Box<IntK>, Box<IntK>),
    Neg(Box<FloatK>),
}

/// Numeric kernel: statically int- or float-typed.
#[derive(Debug, Clone)]
enum NumK {
    Int(IntK),
    Float(FloatK),
}

/// String-typed kernel.
#[derive(Debug, Clone)]
enum StrK {
    Col(usize),
    Const(Arc<str>),
}

/// Boolean-typed kernel (three-valued).
#[derive(Debug, Clone)]
enum BoolK {
    Col(usize),
    Const(bool),
    /// A statically-`NULL` boolean (e.g. a comparison against the `NULL`
    /// literal).
    ConstNull,
    CmpInt(CmpOp, Box<IntK>, Box<IntK>),
    CmpFloat(CmpOp, Box<FloatK>, Box<FloatK>),
    CmpStr(CmpOp, StrK, StrK),
    CmpBool(CmpOp, Box<BoolK>, Box<BoolK>),
    /// A statically-`NULL` boolean whose discarded comparison operands may
    /// raise integer division by zero (see [`Kernel::NullGuarded`]).
    NullGuarded(Vec<Kernel>),
    And(Box<BoolK>, Box<BoolK>),
    Or(Box<BoolK>, Box<BoolK>),
    Not(Box<BoolK>),
}

/// The typed root of a compiled expression.
#[derive(Debug, Clone)]
enum Kernel {
    Num(NumK),
    Bool(BoolK),
    Str(StrK),
    /// The untyped `NULL` literal (and expressions folded to it whose
    /// discarded operands cannot raise runtime errors).
    Null,
    /// A statically-`NULL` expression whose discarded operands may raise
    /// integer division by zero (`NULL + 6/a`, `6/a = NULL`): the row
    /// interpreter evaluates both operands *before* the null check, so the
    /// guards must still be evaluated for their error masks.
    NullGuarded(Vec<Kernel>),
}

/// A type-resolved, constant-folded expression evaluable over
/// [`ColumnarBatch`]es. Produced by [`compile`]; plain data
/// (`Clone + Send + Sync`).
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    kernel: Kernel,
}

/// Compile `expr` against `schema`: bind names, resolve types, fold
/// constants, and build typed column kernels. The compiled form evaluates
/// over any batch whose columns are laid out like `schema`.
pub fn compile(expr: &Expr, schema: &Schema) -> Result<CompiledExpr> {
    let bound = bind(expr, schema)?;
    let kernel = compile_kernel(&bound, schema)?;
    Ok(CompiledExpr { kernel })
}

fn type_err(msg: impl Into<String>) -> ExprError {
    ExprError::TypeError {
        message: msg.into(),
    }
}

fn compile_kernel(expr: &Expr, schema: &Schema) -> Result<Kernel> {
    Ok(match expr {
        Expr::Column(name) => return Err(ExprError::Unbound { name: name.clone() }),
        Expr::BoundColumn { index, .. } => match schema.field(*index).data_type {
            DataType::Int => Kernel::Num(NumK::Int(IntK::Col(*index))),
            DataType::Float => Kernel::Num(NumK::Float(FloatK::Col(*index))),
            DataType::Bool => Kernel::Bool(BoolK::Col(*index)),
            DataType::Str => Kernel::Str(StrK::Col(*index)),
        },
        Expr::Literal(v) => match v {
            sa_storage::Value::Null => Kernel::Null,
            sa_storage::Value::Bool(b) => Kernel::Bool(BoolK::Const(*b)),
            sa_storage::Value::Int(i) => Kernel::Num(NumK::Int(IntK::Const(*i))),
            sa_storage::Value::Float(f) => Kernel::Num(NumK::Float(FloatK::Const(*f))),
            sa_storage::Value::Str(s) => Kernel::Str(StrK::Const(s.clone())),
        },
        Expr::Binary { op, left, right } => {
            let l = compile_kernel(left, schema)?;
            let r = compile_kernel(right, schema)?;
            compile_binary(*op, l, r)?
        }
        Expr::Unary { op, expr } => {
            let k = compile_kernel(expr, schema)?;
            match (op, k) {
                (_, k @ (Kernel::Null | Kernel::NullGuarded(_))) => guarded_null(vec![k]),
                (UnOp::Neg, Kernel::Num(NumK::Int(k))) => {
                    Kernel::Num(NumK::Int(fold_int(IntK::Neg(Box::new(k)))))
                }
                (UnOp::Neg, Kernel::Num(NumK::Float(k))) => {
                    Kernel::Num(NumK::Float(fold_float(FloatK::Neg(Box::new(k)))))
                }
                (UnOp::Not, Kernel::Bool(k)) => Kernel::Bool(fold_bool(BoolK::Not(Box::new(k)))),
                (op, k) => return Err(type_err(format!("{op:?} applied to {}", kind_name(&k)))),
            }
        }
    })
}

fn kind_name(k: &Kernel) -> &'static str {
    match k {
        Kernel::Num(NumK::Int(_)) => "Int",
        Kernel::Num(NumK::Float(_)) => "Float",
        Kernel::Bool(_) => "Bool",
        Kernel::Str(_) => "Str",
        Kernel::Null | Kernel::NullGuarded(_) => "NULL",
    }
}

/// Can evaluating this kernel raise a runtime error? Only `Int ÷ Int`
/// ([`FloatK::DivInt`]) can, so this is a recursive scan for it.
fn kernel_can_err(k: &Kernel) -> bool {
    fn float_can_err(k: &FloatK) -> bool {
        match k {
            FloatK::DivInt(_, _) => true,
            FloatK::Bin(_, a, b) => float_can_err(a) || float_can_err(b),
            FloatK::Neg(a) => float_can_err(a),
            // IntK cannot contain a division (Int ÷ Int compiles to
            // FloatK::DivInt), so FromInt subtrees are error-free.
            FloatK::Col(_) | FloatK::Const(_) | FloatK::FromInt(_) => false,
        }
    }
    fn bool_can_err(k: &BoolK) -> bool {
        match k {
            BoolK::CmpFloat(_, a, b) => float_can_err(a) || float_can_err(b),
            BoolK::CmpBool(_, a, b) | BoolK::And(a, b) | BoolK::Or(a, b) => {
                bool_can_err(a) || bool_can_err(b)
            }
            BoolK::Not(a) => bool_can_err(a),
            BoolK::NullGuarded(g) => g.iter().any(kernel_can_err),
            BoolK::Col(_) | BoolK::Const(_) | BoolK::ConstNull => false,
            BoolK::CmpInt(_, _, _) | BoolK::CmpStr(_, _, _) => false,
        }
    }
    match k {
        Kernel::Num(NumK::Float(f)) => float_can_err(f),
        Kernel::Num(NumK::Int(_)) => false,
        Kernel::Bool(b) => bool_can_err(b),
        Kernel::Str(_) => false,
        Kernel::Null => false,
        Kernel::NullGuarded(g) => g.iter().any(kernel_can_err),
    }
}

/// The NULL result of an operation over `sides` (one of them null-typed):
/// plain `Null` when no discarded operand can error, else a guarded null
/// that keeps the erroring operands alive for their div-by-zero masks —
/// exactly what the row interpreter does by evaluating operands before the
/// null check. Whole kernels are kept as guards (not just their division
/// subtrees) so any `AND`/`OR` short-circuiting *inside* an operand keeps
/// masking exactly as it would have.
fn guarded_null(sides: Vec<Kernel>) -> Kernel {
    let guards: Vec<Kernel> = sides.into_iter().filter(kernel_can_err).collect();
    if guards.is_empty() {
        Kernel::Null
    } else {
        Kernel::NullGuarded(guards)
    }
}

/// [`guarded_null`] typed as a boolean kernel (comparison results).
fn guarded_null_bool(sides: Vec<Kernel>) -> BoolK {
    match guarded_null(sides) {
        Kernel::Null => BoolK::ConstNull,
        Kernel::NullGuarded(g) => BoolK::NullGuarded(g),
        _ => unreachable!("guarded_null returns a null kernel"),
    }
}

fn compile_binary(op: BinOp, l: Kernel, r: Kernel) -> Result<Kernel> {
    use Kernel as K;
    if op.is_arithmetic() {
        return Ok(match (l, r) {
            // NULL poisons arithmetic — but discarded operands keep their
            // div-by-zero potential (the interpreter evaluates them first).
            (l @ (K::Null | K::NullGuarded(_)), r) | (l, r @ (K::Null | K::NullGuarded(_))) => {
                guarded_null(vec![l, r])
            }
            (K::Num(NumK::Int(a)), K::Num(NumK::Int(b))) => {
                if op == BinOp::Div {
                    K::Num(NumK::Float(fold_float(FloatK::DivInt(
                        Box::new(a),
                        Box::new(b),
                    ))))
                } else {
                    K::Num(NumK::Int(fold_int(IntK::Bin(
                        arith(op),
                        Box::new(a),
                        Box::new(b),
                    ))))
                }
            }
            (K::Num(a), K::Num(b)) => K::Num(NumK::Float(fold_float(FloatK::Bin(
                arith(op),
                Box::new(widen(a)),
                Box::new(widen(b)),
            )))),
            (l, r) => {
                return Err(type_err(format!(
                    "{} {} {}",
                    kind_name(&l),
                    op.symbol(),
                    kind_name(&r)
                )))
            }
        });
    }
    if op.is_comparison() {
        let cmp = CmpOp::of(op);
        return Ok(match (l, r) {
            (l @ (K::Null | K::NullGuarded(_)), r) | (l, r @ (K::Null | K::NullGuarded(_))) => {
                K::Bool(guarded_null_bool(vec![l, r]))
            }
            (K::Num(NumK::Int(a)), K::Num(NumK::Int(b))) => {
                K::Bool(fold_bool(BoolK::CmpInt(cmp, Box::new(a), Box::new(b))))
            }
            (K::Num(a), K::Num(b)) => K::Bool(fold_bool(BoolK::CmpFloat(
                cmp,
                Box::new(widen(a)),
                Box::new(widen(b)),
            ))),
            (K::Str(a), K::Str(b)) => K::Bool(fold_bool(BoolK::CmpStr(cmp, a, b))),
            (K::Bool(a), K::Bool(b)) => {
                K::Bool(fold_bool(BoolK::CmpBool(cmp, Box::new(a), Box::new(b))))
            }
            (l, r) => {
                return Err(type_err(format!(
                    "{} {} {}",
                    kind_name(&l),
                    op.symbol(),
                    kind_name(&r)
                )))
            }
        });
    }
    // Logical.
    let as_bool = |k: Kernel| -> Result<BoolK> {
        match k {
            K::Bool(b) => Ok(b),
            K::Null => Ok(BoolK::ConstNull),
            K::NullGuarded(g) => Ok(BoolK::NullGuarded(g)),
            other => Err(type_err(format!("{} {} …", kind_name(&other), op.symbol()))),
        }
    };
    let (a, b) = (as_bool(l)?, as_bool(r)?);
    Ok(K::Bool(fold_bool(match op {
        BinOp::And => BoolK::And(Box::new(a), Box::new(b)),
        BinOp::Or => BoolK::Or(Box::new(a), Box::new(b)),
        _ => unreachable!("logical op"),
    })))
}

fn arith(op: BinOp) -> ArithOp {
    match op {
        BinOp::Add => ArithOp::Add,
        BinOp::Sub => ArithOp::Sub,
        BinOp::Mul => ArithOp::Mul,
        BinOp::Div => ArithOp::Div,
        _ => unreachable!("arithmetic op"),
    }
}

fn widen(k: NumK) -> FloatK {
    match k {
        NumK::Float(f) => f,
        NumK::Int(IntK::Const(i)) => FloatK::Const(i as f64),
        NumK::Int(i) => FloatK::FromInt(Box::new(i)),
    }
}

// ---------------------------------------------------------------------------
// Constant folding. Folds are exact replays of the row interpreter's scalar
// arithmetic (wrapping i64, f64), so a folded kernel cannot diverge from the
// unfolded one. `Int ÷ 0` is deliberately NOT folded: the row interpreter
// raises it per evaluated row, and short-circuiting may skip those rows.
// ---------------------------------------------------------------------------

fn fold_int(k: IntK) -> IntK {
    match &k {
        IntK::Bin(op, a, b) => {
            if let (IntK::Const(a), IntK::Const(b)) = (a.as_ref(), b.as_ref()) {
                return IntK::Const(match op {
                    ArithOp::Add => a.wrapping_add(*b),
                    ArithOp::Sub => a.wrapping_sub(*b),
                    ArithOp::Mul => a.wrapping_mul(*b),
                    ArithOp::Div => unreachable!("Int ÷ Int compiles to FloatK::DivInt"),
                });
            }
            k
        }
        IntK::Neg(a) => {
            if let IntK::Const(a) = a.as_ref() {
                return IntK::Const(a.wrapping_neg());
            }
            k
        }
        _ => k,
    }
}

fn fold_float(k: FloatK) -> FloatK {
    match &k {
        FloatK::Bin(op, a, b) => {
            if let (FloatK::Const(a), FloatK::Const(b)) = (a.as_ref(), b.as_ref()) {
                return FloatK::Const(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                });
            }
            k
        }
        FloatK::DivInt(a, b) => {
            if let (IntK::Const(a), IntK::Const(b)) = (a.as_ref(), b.as_ref()) {
                if *b != 0 {
                    return FloatK::Const(*a as f64 / *b as f64);
                }
            }
            k
        }
        FloatK::Neg(a) => {
            if let FloatK::Const(a) = a.as_ref() {
                return FloatK::Const(-a);
            }
            k
        }
        FloatK::FromInt(a) => {
            if let IntK::Const(a) = a.as_ref() {
                return FloatK::Const(*a as f64);
            }
            k
        }
        _ => k,
    }
}

fn fold_bool(k: BoolK) -> BoolK {
    match &k {
        BoolK::CmpInt(op, a, b) => {
            if let (IntK::Const(a), IntK::Const(b)) = (a.as_ref(), b.as_ref()) {
                return BoolK::Const(op.judge(a.cmp(b)));
            }
        }
        BoolK::CmpFloat(op, a, b) => {
            if let (FloatK::Const(a), FloatK::Const(b)) = (a.as_ref(), b.as_ref()) {
                return BoolK::Const(op.judge(cmp_f64(*a, *b)));
            }
        }
        BoolK::CmpStr(op, StrK::Const(a), StrK::Const(b)) => {
            return BoolK::Const(op.judge(a.cmp(b)));
        }
        BoolK::CmpBool(op, a, b) => {
            if let (BoolK::Const(a), BoolK::Const(b)) = (a.as_ref(), b.as_ref()) {
                return BoolK::Const(op.judge(a.cmp(b)));
            }
        }
        // Only a *left* constant may simplify AND/OR: the row interpreter
        // always evaluates the left operand (so its errors always surface)
        // and skips the right only on a definite left verdict.
        BoolK::And(a, b) => match a.as_ref() {
            BoolK::Const(false) => return BoolK::Const(false),
            BoolK::Const(true) => return b.as_ref().clone(),
            _ => {}
        },
        BoolK::Or(a, b) => match a.as_ref() {
            BoolK::Const(true) => return BoolK::Const(true),
            BoolK::Const(false) => return b.as_ref().clone(),
            _ => {}
        },
        BoolK::Not(a) => match a.as_ref() {
            BoolK::Const(v) => return BoolK::Const(!v),
            BoolK::ConstNull => return BoolK::ConstNull,
            _ => {}
        },
        _ => {}
    }
    k
}

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    // Mirrors Value::total_cmp's float order (NaN last, -0.0 == 0.0).
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => {
            if a == b {
                Ordering::Equal
            } else {
                a.partial_cmp(&b).expect("non-NaN floats compare")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch evaluation.
// ---------------------------------------------------------------------------

/// Per-row booleans packed 64 rows to a word: row `i` is bit `i % 64` of
/// word `i / 64`. Bits past the batch's last row are unspecified in values
/// and validity (a word `!` sets them) but clear in error masks: each one
/// starts clear past the end and is combined only by `&` and `|`, so any
/// nonzero word holds an error row.
type Bits = Vec<u64>;

/// Pack `f` of each element a word at a time. The fixed 64-element inner
/// loop is what the autovectorizer turns into compare-and-movemask.
#[inline]
fn pack<T: Copy>(xs: &[T], f: impl Fn(T) -> bool) -> Bits {
    let word = |c: &[T]| {
        c.iter()
            .enumerate()
            .fold(0u64, |w, (j, &x)| w | (f(x) as u64) << j)
    };
    let words = xs.chunks_exact(64);
    let tail = words.remainder();
    let mut out = Vec::with_capacity(xs.len().div_ceil(64));
    out.extend(words.map(word));
    if !tail.is_empty() {
        out.push(word(tail));
    }
    out
}

/// [`pack`] of `f` over two equally long slices, row by row.
#[inline]
fn pack2<T: Copy>(xs: &[T], ys: &[T], f: impl Fn(T, T) -> bool) -> Bits {
    debug_assert_eq!(xs.len(), ys.len());
    let word = |(a, b): (&[T], &[T])| {
        a.iter()
            .zip(b)
            .enumerate()
            .fold(0u64, |w, (j, (&x, &y))| w | (f(x, y) as u64) << j)
    };
    let (a, b) = (xs.chunks_exact(64), ys.chunks_exact(64));
    let tail = (a.remainder(), b.remainder());
    let mut out = Vec::with_capacity(xs.len().div_ceil(64));
    out.extend(a.zip(b).map(word));
    if !tail.0.is_empty() {
        out.push(word(tail));
    }
    out
}

/// `rows` rows all `v` (bits past `rows` clear).
fn splat(rows: usize, v: bool) -> Bits {
    let mut out = vec![if v { !0 } else { 0 }; rows.div_ceil(64)];
    let tail = rows % 64;
    if v && tail != 0 {
        out[rows / 64] = (1 << tail) - 1;
    }
    out
}

/// The first `rows` bits as `bool`s — where words leave the kernels.
fn unpack(bits: &[u64], rows: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(rows);
    for (k, &w) in bits.iter().enumerate() {
        let n = (rows - 64 * k).min(64);
        out.extend((0..n).map(|j| w >> j & 1 != 0));
    }
    out
}

/// `a[k] = f(a[k], b[k])` word by word, in place.
fn zip_words(mut a: Bits, b: &[u64], f: impl Fn(u64, u64) -> u64) -> Bits {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
    a
}

/// A numeric kernel result's values: a broadcast constant, an owned vector
/// (a computed intermediate) or a **borrowed slice of the batch's own
/// storage** — a bare column reference lends the batch's data instead of
/// copying it, so `col(a) > 0 AND col(a) < 10` never memcpys column `a`.
/// Binary kernels specialize their loops on the shape, so `col + 1.0`
/// never materializes the constant side either.
enum Vals<'a, T> {
    Const(T),
    Vec(Vec<T>),
    Slice(&'a [T]),
}

impl<'a, T: Copy> Vals<'a, T> {
    /// The broadcast constant, if this is one.
    #[inline]
    fn as_const(&self) -> Option<T> {
        match self {
            Vals::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// The per-row values (panics on `Const` — callers check `as_const`).
    #[inline]
    fn slice(&self) -> &[T] {
        match self {
            Vals::Const(_) => unreachable!("as_const checked"),
            Vals::Vec(v) => v,
            Vals::Slice(s) => s,
        }
    }

    fn materialize(self, rows: usize) -> Vec<T> {
        match self {
            Vals::Const(c) => vec![c; rows],
            Vals::Vec(v) => v,
            Vals::Slice(s) => s.to_vec(),
        }
    }

    /// `f` of each value; a constant stays a constant.
    #[inline]
    fn map<R>(&self, f: impl Fn(T) -> R) -> Vals<'a, R> {
        match self.as_const() {
            Some(x) => Vals::Const(f(x)),
            None => Vals::Vec(self.slice().iter().map(|&x| f(x)).collect()),
        }
    }
}

/// `f` of each row's pair of values, the loop chosen once by the operands'
/// shapes.
#[inline]
fn zip_vals<'a, T: Copy, R>(
    a: &Vals<'_, T>,
    b: &Vals<'_, T>,
    f: impl Fn(T, T) -> R,
) -> Vals<'a, R> {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(y)) => Vals::Const(f(x, y)),
        (None, Some(y)) => Vals::Vec(a.slice().iter().map(|&x| f(x, y)).collect()),
        (Some(x), None) => Vals::Vec(b.slice().iter().map(|&y| f(x, y)).collect()),
        (None, None) => Vals::Vec(
            a.slice()
                .iter()
                .zip(b.slice())
                .map(|(&x, &y)| f(x, y))
                .collect(),
        ),
    }
}

/// A kernel's batch result: values (a [`Vals`] for numbers, [`Bits`] for
/// booleans; arbitrary on invalid rows), validity (`None` = all valid) and
/// the rows whose evaluation raised integer division by zero (`None` =
/// none).
struct Evaled<V> {
    vals: V,
    validity: Option<Bits>,
    div0: Option<Bits>,
}

impl<T> Evaled<Vals<'_, T>> {
    fn constant(c: T) -> Evaled<Vals<'static, T>> {
        Evaled {
            vals: Vals::Const(c),
            validity: None,
            div0: None,
        }
    }
}

impl Evaled<Bits> {
    /// The rows whose value is definitely `v` (valid and equal to it).
    fn definite(&self, v: bool) -> Bits {
        let flip = if v { 0 } else { !0 };
        match &self.validity {
            None => self.vals.iter().map(|&x| x ^ flip).collect(),
            Some(ok) => self
                .vals
                .iter()
                .zip(ok)
                .map(|(&x, &ok)| (x ^ flip) & ok)
                .collect(),
        }
    }
}

/// A binary kernel's result: `vals` with both operands' nulls and errors.
fn both<V, A, B>(vals: V, a: Evaled<A>, b: Evaled<B>) -> Evaled<V> {
    Evaled {
        vals,
        validity: merge_validity(a.validity, b.validity),
        div0: union_masks(a.div0, b.div0),
    }
}

/// Union of two optional row masks.
fn union_masks(a: Option<Bits>, b: Option<Bits>) -> Option<Bits> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(zip_words(a, &b, |x, y| x | y)),
    }
}

/// Intersection of validity: invalid if either side is.
fn merge_validity(a: Option<Bits>, b: Option<Bits>) -> Option<Bits> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(zip_words(a, &b, |x, y| x & y)),
    }
}

/// `DivisionByZero` if any row of the error mask is set.
fn raise(div0: &Option<Bits>) -> Result<()> {
    match div0 {
        Some(rows) if rows.iter().any(|&w| w != 0) => Err(ExprError::DivisionByZero),
        _ => Ok(()),
    }
}

/// A column's storage validity as words, packed only when it has one.
fn col_validity(col: &ColumnVec) -> Option<Bits> {
    col.validity.as_deref().map(|v| pack(v, |ok| ok))
}

fn expect_col<'a>(batch: &'a ColumnarBatch, idx: usize, want: &str) -> Result<&'a ColumnVec> {
    let col = batch
        .columns()
        .get(idx)
        .ok_or_else(|| type_err(format!("batch has no column {idx}")))?;
    // The type was resolved against the schema at compile time; a mismatch
    // here means the producing operator broke the schema contract (e.g. a
    // projection of a NULL-typed expression) — surface it as a type error,
    // exactly where the row interpreter would raise one.
    let got = col.data_type();
    let ok = matches!(
        (want, got),
        ("Int", DataType::Int)
            | ("Float", DataType::Float)
            | ("Bool", DataType::Bool)
            | ("Str", DataType::Str)
    );
    if !ok {
        return Err(type_err(format!("column {idx} is {got}, expected {want}")));
    }
    Ok(col)
}

fn eval_int<'a>(k: &IntK, batch: &'a ColumnarBatch) -> Result<Evaled<Vals<'a, i64>>> {
    Ok(match k {
        IntK::Const(c) => Evaled::constant(*c),
        IntK::Col(i) => {
            let col = expect_col(batch, *i, "Int")?;
            let ColumnData::Int(data) = &col.data else {
                unreachable!("type checked");
            };
            Evaled {
                vals: Vals::Slice(data),
                validity: col_validity(col),
                div0: None,
            }
        }
        IntK::Bin(op, a, b) => {
            let (a, b) = (eval_int(a, batch)?, eval_int(b, batch)?);
            let vals = match op {
                ArithOp::Add => zip_vals(&a.vals, &b.vals, i64::wrapping_add),
                ArithOp::Sub => zip_vals(&a.vals, &b.vals, i64::wrapping_sub),
                ArithOp::Mul => zip_vals(&a.vals, &b.vals, i64::wrapping_mul),
                ArithOp::Div => unreachable!("Int ÷ Int compiles to FloatK::DivInt"),
            };
            both(vals, a, b)
        }
        IntK::Neg(a) => {
            let a = eval_int(a, batch)?;
            Evaled {
                vals: a.vals.map(i64::wrapping_neg),
                ..a
            }
        }
    })
}

fn eval_float<'a>(k: &FloatK, batch: &'a ColumnarBatch) -> Result<Evaled<Vals<'a, f64>>> {
    Ok(match k {
        FloatK::Const(c) => Evaled::constant(*c),
        FloatK::Col(i) => {
            let col = expect_col(batch, *i, "Float")?;
            let ColumnData::Float(data) = &col.data else {
                unreachable!("type checked");
            };
            Evaled {
                vals: Vals::Slice(data),
                validity: col_validity(col),
                div0: None,
            }
        }
        FloatK::FromInt(a) => {
            let a = eval_int(a, batch)?;
            Evaled {
                vals: a.vals.map(|x| x as f64),
                validity: a.validity,
                div0: a.div0,
            }
        }
        FloatK::Bin(op, a, b) => {
            let (a, b) = (eval_float(a, batch)?, eval_float(b, batch)?);
            let vals = match op {
                ArithOp::Add => zip_vals(&a.vals, &b.vals, |x, y| x + y),
                ArithOp::Sub => zip_vals(&a.vals, &b.vals, |x, y| x - y),
                ArithOp::Mul => zip_vals(&a.vals, &b.vals, |x, y| x * y),
                ArithOp::Div => zip_vals(&a.vals, &b.vals, |x, y| x / y),
            };
            both(vals, a, b)
        }
        FloatK::DivInt(a, b) => {
            let (a, b) = (eval_int(a, batch)?, eval_int(b, batch)?);
            let vals = zip_vals(&a.vals, &b.vals, |x, d| {
                if d == 0 {
                    0.0
                } else {
                    x as f64 / d as f64
                }
            });
            let zero = match b.vals.as_const() {
                Some(d) => (d == 0).then(|| splat(batch.rows(), true)),
                None => Some(pack(b.vals.slice(), |d| d == 0)),
            };
            let mut out = both(vals, a, b);
            // Only rows where BOTH operands are non-null actually reach the
            // division in the row interpreter (NULL poisons first and
            // returns before dividing).
            let zero = zero.map(|z| match &out.validity {
                Some(ok) => zip_words(z, ok, |z, ok| z & ok),
                None => z,
            });
            out.div0 = union_masks(out.div0, zero.filter(|z| z.iter().any(|&w| w != 0)));
            out
        }
        FloatK::Neg(a) => {
            let a = eval_float(a, batch)?;
            Evaled {
                vals: a.vals.map(|x| -x),
                ..a
            }
        }
    })
}

/// A total order on one operand type, as the three predicates a packed
/// comparison needs (`>` and `>=` are read off them).
trait Order<T> {
    fn eq(x: T, y: T) -> bool;
    fn lt(x: T, y: T) -> bool;
    fn le(x: T, y: T) -> bool;
}

/// The type's own `PartialOrd`: total on `i64` and `&str`, and on `f64`
/// against a non-NaN constant, because [`pack_cmp`] reads `x > c` as
/// `!(x <= c)` and `x >= c` as `!(x < c)` — true for a NaN `x`, which
/// sorts greatest.
struct Native;

impl<T: PartialOrd> Order<T> for Native {
    #[inline]
    fn eq(x: T, y: T) -> bool {
        x == y
    }
    #[inline]
    fn lt(x: T, y: T) -> bool {
        x < y
    }
    #[inline]
    fn le(x: T, y: T) -> bool {
        x <= y
    }
}

/// [`Value::total_cmp`](sa_storage::Value::total_cmp)'s float order,
/// branch-free: NaN sorts greatest and equals itself; `-0.0 = +0.0`.
struct TotalF64;

impl Order<f64> for TotalF64 {
    #[inline]
    fn eq(x: f64, y: f64) -> bool {
        (x == y) | (x.is_nan() & y.is_nan())
    }
    #[inline]
    fn lt(x: f64, y: f64) -> bool {
        (x < y) | (!x.is_nan() & y.is_nan())
    }
    #[inline]
    fn le(x: f64, y: f64) -> bool {
        (x <= y) | y.is_nan()
    }
}

/// `a op b` packed into words. The operator and the operand shapes pick one
/// monomorphic loop per call; a constant on the left is flipped right.
fn pack_cmp<T: Copy, O: Order<T>>(
    op: CmpOp,
    a: &Vals<'_, T>,
    b: &Vals<'_, T>,
    rows: usize,
) -> Bits {
    match (a.as_const(), b.as_const()) {
        (Some(x), Some(_)) => {
            let xs = vec![x; rows];
            pack_cmp::<T, O>(op, &Vals::Slice(&xs), b, rows)
        }
        (Some(_), None) => pack_cmp::<T, O>(op.flip(), b, a, rows),
        (None, Some(c)) => {
            let xs = a.slice();
            match op {
                CmpOp::Eq => pack(xs, |x| O::eq(x, c)),
                CmpOp::NotEq => pack(xs, |x| !O::eq(x, c)),
                CmpOp::Lt => pack(xs, |x| O::lt(x, c)),
                CmpOp::LtEq => pack(xs, |x| O::le(x, c)),
                CmpOp::Gt => pack(xs, |x| !O::le(x, c)),
                CmpOp::GtEq => pack(xs, |x| !O::lt(x, c)),
            }
        }
        (None, None) => {
            let (xs, ys) = (a.slice(), b.slice());
            match op {
                CmpOp::Eq => pack2(xs, ys, O::eq),
                CmpOp::NotEq => pack2(xs, ys, |x, y| !O::eq(x, y)),
                CmpOp::Lt => pack2(xs, ys, O::lt),
                CmpOp::LtEq => pack2(xs, ys, O::le),
                CmpOp::Gt => pack2(ys, xs, O::lt),
                CmpOp::GtEq => pack2(ys, xs, O::le),
            }
        }
    }
}

/// Evaluate guard kernels for their error masks only (the union of their
/// div-by-zero rows) — the runtime half of [`Kernel::NullGuarded`].
fn eval_guards(guards: &[Kernel], batch: &ColumnarBatch) -> Result<Option<Bits>> {
    let mut err: Option<Bits> = None;
    for g in guards {
        let div0 = match g {
            Kernel::Num(NumK::Int(_)) | Kernel::Str(_) | Kernel::Null => None,
            Kernel::Num(NumK::Float(k)) => eval_float(k, batch)?.div0,
            Kernel::Bool(k) => eval_bool(k, batch)?.div0,
            Kernel::NullGuarded(g) => eval_guards(g, batch)?,
        };
        err = union_masks(err, div0);
    }
    Ok(err)
}

fn eval_bool(k: &BoolK, batch: &ColumnarBatch) -> Result<Evaled<Bits>> {
    let rows = batch.rows();
    Ok(match k {
        BoolK::Const(c) => Evaled {
            vals: splat(rows, *c),
            validity: None,
            div0: None,
        },
        BoolK::ConstNull => Evaled {
            vals: splat(rows, false),
            validity: Some(splat(rows, false)),
            div0: None,
        },
        BoolK::NullGuarded(guards) => Evaled {
            vals: splat(rows, false),
            validity: Some(splat(rows, false)),
            div0: eval_guards(guards, batch)?,
        },
        BoolK::Col(i) => {
            let col = expect_col(batch, *i, "Bool")?;
            let ColumnData::Bool(data) = &col.data else {
                unreachable!("type checked");
            };
            Evaled {
                vals: pack(data, |b| b),
                validity: col_validity(col),
                div0: None,
            }
        }
        BoolK::CmpInt(op, a, b) => {
            let (a, b) = (eval_int(a, batch)?, eval_int(b, batch)?);
            both(pack_cmp::<i64, Native>(*op, &a.vals, &b.vals, rows), a, b)
        }
        BoolK::CmpFloat(op, a, b) => {
            let (a, b) = (eval_float(a, batch)?, eval_float(b, batch)?);
            let nan_free_const = match (a.vals.as_const(), b.vals.as_const()) {
                (Some(x), Some(y)) => !x.is_nan() && !y.is_nan(),
                (Some(c), None) | (None, Some(c)) => !c.is_nan(),
                (None, None) => false,
            };
            let vals = if nan_free_const {
                pack_cmp::<f64, Native>(*op, &a.vals, &b.vals, rows)
            } else {
                pack_cmp::<f64, TotalF64>(*op, &a.vals, &b.vals, rows)
            };
            both(vals, a, b)
        }
        BoolK::CmpBool(op, a, b) => {
            let (mut a, b) = (eval_bool(a, batch)?, eval_bool(b, batch)?);
            // false < true, a word at a time.
            let vals = std::mem::take(&mut a.vals);
            let vals = match op {
                CmpOp::Eq => zip_words(vals, &b.vals, |x, y| !(x ^ y)),
                CmpOp::NotEq => zip_words(vals, &b.vals, |x, y| x ^ y),
                CmpOp::Lt => zip_words(vals, &b.vals, |x, y| !x & y),
                CmpOp::LtEq => zip_words(vals, &b.vals, |x, y| !x | y),
                CmpOp::Gt => zip_words(vals, &b.vals, |x, y| x & !y),
                CmpOp::GtEq => zip_words(vals, &b.vals, |x, y| x | !y),
            };
            both(vals, a, b)
        }
        BoolK::CmpStr(op, a, b) => eval_cmp_str(*op, a, b, batch)?,
        BoolK::And(a, b) | BoolK::Or(a, b) => {
            let or = matches!(k, BoolK::Or(..));
            let (a, b) = (eval_bool(a, batch)?, eval_bool(b, batch)?);
            // Kleene: the dominant verdict (false for AND, true for OR)
            // wins over NULL; otherwise NULL wins.
            let (dom_a, dom_b) = (a.definite(or), b.definite(or));
            // Short-circuit-faithful errors: the left operand's errors
            // always count; the right's only on rows the row interpreter
            // would have evaluated it (left not dominant).
            let b_err = mask_shortcircuit(b.div0, &dom_a);
            let dominant = zip_words(dom_a, &dom_b, |x, y| x | y);
            let validity = merge_validity(a.validity, b.validity)
                .map(|ok| zip_words(ok, &dominant, |ok, d| ok | d));
            // A valid row reads the dominant verdict where either side has
            // it and the other verdict elsewhere.
            let mut vals = dominant;
            if !or {
                vals.iter_mut().for_each(|w| *w = !*w);
            }
            Evaled {
                vals,
                validity,
                div0: union_masks(a.div0, b_err),
            }
        }
        BoolK::Not(a) => {
            let a = eval_bool(a, batch)?;
            Evaled {
                vals: a.vals.iter().map(|&x| !x).collect(),
                ..a
            }
        }
    })
}

/// Clear error rows where the row interpreter short-circuited past the
/// operand (`skipped` set); `None` once no error row is left.
fn mask_shortcircuit(err: Option<Bits>, skipped: &[u64]) -> Option<Bits> {
    let err = zip_words(err?, skipped, |e, s| e & !s);
    err.iter().any(|&w| w != 0).then_some(err)
}

/// A string operand resolved against a batch: dictionary + codes, or a
/// constant.
enum StrVals<'a> {
    Col {
        dict: &'a [Arc<str>],
        codes: &'a [u32],
        validity: Option<Bits>,
    },
    /// A constant operand (one cheap `Arc` clone per batch, so the variant
    /// borrows only from the batch, not the kernel).
    Const(Arc<str>),
}

impl StrVals<'_> {
    /// The per-row strings (a constant stays a constant).
    fn decode(&self) -> Vals<'_, &str> {
        match self {
            StrVals::Col { dict, codes, .. } => {
                Vals::Vec(codes.iter().map(|&k| &*dict[k as usize]).collect())
            }
            StrVals::Const(c) => Vals::Const(c),
        }
    }

    fn validity(self) -> Option<Bits> {
        match self {
            StrVals::Col { validity, .. } => validity,
            StrVals::Const(_) => None,
        }
    }
}

fn str_vals<'a>(k: &StrK, batch: &'a ColumnarBatch) -> Result<StrVals<'a>> {
    Ok(match k {
        StrK::Const(s) => StrVals::Const(s.clone()),
        StrK::Col(i) => {
            let col = expect_col(batch, *i, "Str")?;
            let ColumnData::Str { dict, codes } = &col.data else {
                unreachable!("type checked");
            };
            StrVals::Col {
                dict,
                codes,
                validity: col_validity(col),
            }
        }
    })
}

fn eval_cmp_str(op: CmpOp, a: &StrK, b: &StrK, batch: &ColumnarBatch) -> Result<Evaled<Bits>> {
    let rows = batch.rows();
    let (a, b) = match (str_vals(a, batch)?, str_vals(b, batch)?) {
        // Fast path: column vs constant — decide once per dictionary
        // entry, then map codes (the dictionary is tiny next to the batch).
        (
            StrVals::Col {
                dict,
                codes,
                validity,
            },
            StrVals::Const(c),
        ) => {
            let table: Vec<bool> = dict
                .iter()
                .map(|e| op.judge(e.as_ref().cmp(c.as_ref())))
                .collect();
            return Ok(Evaled {
                vals: pack(codes, |code| table[code as usize]),
                validity,
                div0: None,
            });
        }
        operands => operands,
    };
    // Otherwise compare the decoded strings.
    Ok(Evaled {
        vals: pack_cmp::<&str, Native>(op, &a.decode(), &b.decode(), rows),
        validity: merge_validity(a.validity(), b.validity()),
        div0: None,
    })
}

// ---------------------------------------------------------------------------
// Public evaluation surface.
// ---------------------------------------------------------------------------

impl CompiledExpr {
    /// Static result type (`None` for the bare `NULL` literal and
    /// expressions folded to it), matching [`crate::data_type`].
    pub fn data_type(&self) -> Option<DataType> {
        match &self.kernel {
            Kernel::Num(NumK::Int(_)) => Some(DataType::Int),
            Kernel::Num(NumK::Float(_)) => Some(DataType::Float),
            Kernel::Bool(_) => Some(DataType::Bool),
            Kernel::Str(_) => Some(DataType::Str),
            Kernel::Null | Kernel::NullGuarded(_) => None,
        }
    }

    /// The column indices this compiled expression reads, ascending and
    /// deduplicated.
    pub fn columns_used(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit_columns(&mut |i| {
            if !out.contains(&i) {
                out.push(i);
            }
        });
        out.sort_unstable();
        out
    }

    /// Rewrite every column index through `map` (old index → new index) —
    /// used when an operator evaluates compiled expressions over a gathered
    /// subset of its input's columns (the fused filter+project path).
    pub fn remap_columns(&mut self, map: &dyn Fn(usize) -> usize) {
        self.map_columns(map);
    }

    /// Evaluate as a selection predicate: `true` per passing row, with SQL
    /// semantics (`NULL` does not pass). Errors if the expression is not
    /// boolean or any non-short-circuited row divides an integer by zero.
    pub fn eval_mask(&self, batch: &ColumnarBatch) -> Result<Vec<bool>> {
        let rows = batch.rows();
        let b = match &self.kernel {
            Kernel::Bool(k) => eval_bool(k, batch)?,
            Kernel::Null => return Ok(vec![false; rows]),
            Kernel::NullGuarded(guards) => {
                raise(&eval_guards(guards, batch)?)?;
                return Ok(vec![false; rows]);
            }
            other => {
                return Err(type_err(format!(
                    "predicate evaluated to non-boolean {}",
                    kind_name(other)
                )))
            }
        };
        raise(&b.div0)?;
        let pass = match &b.validity {
            Some(ok) => zip_words(b.vals, ok, |v, ok| v & ok),
            None => b.vals,
        };
        Ok(unpack(&pass, rows))
    }

    /// Evaluate as a numeric vector (`f64`, ints widened) with validity
    /// (`None` = no nulls) — the batch counterpart of [`crate::eval_f64`].
    pub fn eval_f64(&self, batch: &ColumnarBatch) -> Result<(Vec<f64>, Option<Vec<bool>>)> {
        let rows = batch.rows();
        let e = match &self.kernel {
            Kernel::Num(NumK::Float(k)) => eval_float(k, batch)?,
            Kernel::Num(NumK::Int(k)) => {
                let e = eval_int(k, batch)?;
                Evaled {
                    vals: e.vals.map(|x| x as f64),
                    validity: e.validity,
                    div0: e.div0,
                }
            }
            Kernel::Null => return Ok((vec![0.0; rows], Some(vec![false; rows]))),
            Kernel::NullGuarded(guards) => {
                raise(&eval_guards(guards, batch)?)?;
                return Ok((vec![0.0; rows], Some(vec![false; rows])));
            }
            other => {
                return Err(type_err(format!(
                    "expected numeric result, got {}",
                    kind_name(other)
                )))
            }
        };
        raise(&e.div0)?;
        Ok((
            e.vals.materialize(rows),
            e.validity.map(|ok| unpack(&ok, rows)),
        ))
    }

    /// Evaluate as an output column (projection). The column's type is the
    /// kernel's static type; a `NULL`-typed expression projects as an
    /// all-null `Float` column (matching the executor's schema default).
    pub fn eval_column(&self, batch: &ColumnarBatch) -> Result<ColumnVec> {
        let rows = batch.rows();
        let validity = |ok: Option<Bits>| ok.map(|ok| unpack(&ok, rows));
        Ok(match &self.kernel {
            Kernel::Num(NumK::Int(k)) => {
                let e = eval_int(k, batch)?;
                raise(&e.div0)?;
                ColumnVec {
                    data: ColumnData::Int(e.vals.materialize(rows)),
                    validity: validity(e.validity),
                }
            }
            Kernel::Num(NumK::Float(k)) => {
                let e = eval_float(k, batch)?;
                raise(&e.div0)?;
                ColumnVec {
                    data: ColumnData::Float(e.vals.materialize(rows)),
                    validity: validity(e.validity),
                }
            }
            Kernel::Bool(k) => {
                let e = eval_bool(k, batch)?;
                raise(&e.div0)?;
                ColumnVec {
                    data: ColumnData::Bool(unpack(&e.vals, rows)),
                    validity: validity(e.validity),
                }
            }
            Kernel::Str(StrK::Col(i)) => expect_col(batch, *i, "Str")?.clone(),
            Kernel::Str(StrK::Const(s)) => ColumnVec {
                data: ColumnData::Str {
                    dict: Arc::new(vec![s.clone()]),
                    codes: vec![0; rows],
                },
                validity: None,
            },
            Kernel::Null => ColumnVec {
                data: ColumnData::Float(vec![0.0; rows]),
                validity: Some(vec![false; rows]),
            },
            Kernel::NullGuarded(guards) => {
                raise(&eval_guards(guards, batch)?)?;
                ColumnVec {
                    data: ColumnData::Float(vec![0.0; rows]),
                    validity: Some(vec![false; rows]),
                }
            }
        })
    }

    fn visit_columns(&self, f: &mut impl FnMut(usize)) {
        fn num(k: &NumK, f: &mut impl FnMut(usize)) {
            match k {
                NumK::Int(k) => int(k, f),
                NumK::Float(k) => float(k, f),
            }
        }
        fn int(k: &IntK, f: &mut impl FnMut(usize)) {
            match k {
                IntK::Col(i) => f(*i),
                IntK::Const(_) => {}
                IntK::Bin(_, a, b) => {
                    int(a, f);
                    int(b, f);
                }
                IntK::Neg(a) => int(a, f),
            }
        }
        fn float(k: &FloatK, f: &mut impl FnMut(usize)) {
            match k {
                FloatK::Col(i) => f(*i),
                FloatK::Const(_) => {}
                FloatK::FromInt(a) => int(a, f),
                FloatK::Bin(_, a, b) => {
                    float(a, f);
                    float(b, f);
                }
                FloatK::DivInt(a, b) => {
                    int(a, f);
                    int(b, f);
                }
                FloatK::Neg(a) => float(a, f),
            }
        }
        fn st(k: &StrK, f: &mut impl FnMut(usize)) {
            if let StrK::Col(i) = k {
                f(*i)
            }
        }
        fn bool_(k: &BoolK, f: &mut impl FnMut(usize)) {
            match k {
                BoolK::Col(i) => f(*i),
                BoolK::Const(_) | BoolK::ConstNull => {}
                BoolK::CmpInt(_, a, b) => {
                    int(a, f);
                    int(b, f);
                }
                BoolK::CmpFloat(_, a, b) => {
                    float(a, f);
                    float(b, f);
                }
                BoolK::CmpStr(_, a, b) => {
                    st(a, f);
                    st(b, f);
                }
                BoolK::CmpBool(_, a, b) | BoolK::And(a, b) | BoolK::Or(a, b) => {
                    bool_(a, f);
                    bool_(b, f);
                }
                BoolK::Not(a) => bool_(a, f),
                BoolK::NullGuarded(g) => g.iter().for_each(|k| kernel(k, f)),
            }
        }
        fn kernel(k: &Kernel, f: &mut impl FnMut(usize)) {
            match k {
                Kernel::Num(k) => num(k, f),
                Kernel::Bool(k) => bool_(k, f),
                Kernel::Str(k) => st(k, f),
                Kernel::Null => {}
                Kernel::NullGuarded(g) => g.iter().for_each(|k| kernel(k, f)),
            }
        }
        kernel(&self.kernel, f);
    }

    fn map_columns(&mut self, m: &dyn Fn(usize) -> usize) {
        fn num(k: &mut NumK, m: &dyn Fn(usize) -> usize) {
            match k {
                NumK::Int(k) => int(k, m),
                NumK::Float(k) => float(k, m),
            }
        }
        fn int(k: &mut IntK, m: &dyn Fn(usize) -> usize) {
            match k {
                IntK::Col(i) => *i = m(*i),
                IntK::Const(_) => {}
                IntK::Bin(_, a, b) => {
                    int(a, m);
                    int(b, m);
                }
                IntK::Neg(a) => int(a, m),
            }
        }
        fn float(k: &mut FloatK, m: &dyn Fn(usize) -> usize) {
            match k {
                FloatK::Col(i) => *i = m(*i),
                FloatK::Const(_) => {}
                FloatK::FromInt(a) => int(a, m),
                FloatK::Bin(_, a, b) => {
                    float(a, m);
                    float(b, m);
                }
                FloatK::DivInt(a, b) => {
                    int(a, m);
                    int(b, m);
                }
                FloatK::Neg(a) => float(a, m),
            }
        }
        fn st(k: &mut StrK, m: &dyn Fn(usize) -> usize) {
            if let StrK::Col(i) = k {
                *i = m(*i)
            }
        }
        fn bool_(k: &mut BoolK, m: &dyn Fn(usize) -> usize) {
            match k {
                BoolK::Col(i) => *i = m(*i),
                BoolK::Const(_) | BoolK::ConstNull => {}
                BoolK::CmpInt(_, a, b) => {
                    int(a, m);
                    int(b, m);
                }
                BoolK::CmpFloat(_, a, b) => {
                    float(a, m);
                    float(b, m);
                }
                BoolK::CmpStr(_, a, b) => {
                    st(a, m);
                    st(b, m);
                }
                BoolK::CmpBool(_, a, b) | BoolK::And(a, b) | BoolK::Or(a, b) => {
                    bool_(a, m);
                    bool_(b, m);
                }
                BoolK::Not(a) => bool_(a, m),
                BoolK::NullGuarded(g) => g.iter_mut().for_each(|k| kernel(k, m)),
            }
        }
        fn kernel(k: &mut Kernel, m: &dyn Fn(usize) -> usize) {
            match k {
                Kernel::Num(k) => num(k, m),
                Kernel::Bool(k) => bool_(k, m),
                Kernel::Str(k) => st(k, m),
                Kernel::Null => {}
                Kernel::NullGuarded(g) => g.iter_mut().for_each(|k| kernel(k, m)),
            }
        }
        kernel(&mut self.kernel, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{col, lit};
    use crate::eval::{eval, eval_f64, eval_predicate};
    use sa_storage::{Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("flag", DataType::Bool),
        ])
        .unwrap()
    }

    /// A batch plus its row-wise view, for differential checks.
    fn batch() -> (ColumnarBatch, Vec<Vec<Value>>) {
        let rows = vec![
            vec![
                Value::Int(6),
                Value::Float(0.5),
                Value::str("hi"),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Float(2.0),
                Value::str("ho"),
                Value::Null,
            ],
            vec![Value::Int(-3), Value::Null, Value::Null, Value::Bool(false)],
            vec![
                Value::Int(0),
                Value::Float(-0.0),
                Value::str("hi"),
                Value::Bool(true),
            ],
        ];
        let s = schema();
        let cols = (0..4)
            .map(|c| {
                ColumnVec::from_values(s.field(c).data_type, rows.iter().map(move |r| r[c].clone()))
            })
            .collect();
        (ColumnarBatch::new(cols, rows.len()), rows)
    }

    /// The compiled column result at each row must equal the interpreter.
    fn assert_matches_interpreter(e: &Expr) {
        let s = schema();
        let bound = bind(e, &s).unwrap();
        let compiled = compile(e, &s).unwrap();
        let (batch, rows) = batch();
        let out = compiled.eval_column(&batch).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let want = eval(&bound, row).unwrap();
            let got = out.value(i);
            match (&want, &got) {
                // A NULL-typed projection is all-null in both paths.
                (Value::Null, Value::Null) => {}
                _ => assert_eq!(got, want, "{e} @ row {i}"),
            }
        }
    }

    #[test]
    fn arithmetic_comparisons_and_logic_match_interpreter() {
        for e in [
            col("a").add(lit(1i64)),
            col("a").mul(col("a")).sub(lit(2i64)),
            col("a").mul(col("b")),
            col("b").div(lit(4.0)),
            col("a").div(lit(4i64)),
            col("a").neg(),
            col("b").neg(),
            col("a").gt(lit(0i64)),
            col("a").lt_eq(col("b")),
            col("b").eq(lit(0.0)),
            col("s").eq(lit("hi")),
            col("s").not_eq(lit("ho")),
            col("s").lt(col("s")),
            col("flag").not(),
            col("flag").and(col("a").gt(lit(0i64))),
            col("flag").or(col("a").gt(lit(0i64))),
            col("flag").eq(lit(true)),
            col("a").eq(lit(Value::Null)),
            lit(1i64).add(lit(2i64)).mul(col("a")),
        ] {
            assert_matches_interpreter(&e);
        }
    }

    #[test]
    fn predicate_mask_matches_interpreter() {
        let s = schema();
        let (b, rows) = batch();
        for e in [
            col("a").gt(lit(0i64)),
            col("flag").and(col("b").gt_eq(lit(0.0))),
            col("a").eq(lit(Value::Null)).or(col("flag")),
            col("s").eq(lit("hi")),
        ] {
            let bound = bind(&e, &s).unwrap();
            let mask = compile(&e, &s).unwrap().eval_mask(&b).unwrap();
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(mask[i], eval_predicate(&bound, row).unwrap(), "{e} @ {i}");
            }
        }
    }

    #[test]
    fn eval_f64_matches_interpreter() {
        let s = schema();
        let (b, rows) = batch();
        for e in [
            col("a"),
            col("b"),
            col("a").mul(col("b")),
            col("b").add(lit(1.5)),
        ] {
            let bound = bind(&e, &s).unwrap();
            let (vals, validity) = compile(&e, &s).unwrap().eval_f64(&b).unwrap();
            for (i, row) in rows.iter().enumerate() {
                let want = eval_f64(&bound, row).unwrap();
                let got = validity.as_ref().is_none_or(|v| v[i]).then_some(vals[i]);
                assert_eq!(got, want, "{e} @ {i}");
            }
        }
    }

    #[test]
    fn division_by_zero_faithful_to_short_circuit() {
        let s = schema();
        let (b, _) = batch();
        // Unmasked: row `a = 0` divides by zero through `6 / a`.
        let e = lit(6i64).div(col("a")).gt(lit(0i64));
        let err = compile(&e, &s).unwrap().eval_mask(&b).unwrap_err();
        assert_eq!(err, ExprError::DivisionByZero);
        // Masked by a definite-false left operand: never raised.
        let e = lit(false).and(lit(6i64).div(col("a")).gt(lit(0i64)));
        let mask = compile(&e, &s).unwrap().eval_mask(&b).unwrap();
        assert!(mask.iter().all(|&m| !m));
        // Masked by a definite-true left operand of OR.
        let e = lit(true).or(lit(6i64).div(col("a")).gt(lit(0i64)));
        let mask = compile(&e, &s).unwrap().eval_mask(&b).unwrap();
        assert!(mask.iter().all(|&m| m));
        // A NULL left operand does NOT mask the right (the interpreter
        // evaluates it): still an error.
        let e = col("a")
            .eq(lit(Value::Null))
            .and(lit(6i64).div(col("a")).gt(lit(0i64)));
        assert_eq!(
            compile(&e, &s).unwrap().eval_mask(&b).unwrap_err(),
            ExprError::DivisionByZero
        );
    }

    #[test]
    fn null_folding_keeps_division_errors_alive() {
        // The row interpreter evaluates BOTH operands before the null
        // check, so `6 / a = NULL` errors on a = 0 even though the result
        // would be NULL — folding to a plain constant null must not
        // swallow that.
        let s = schema();
        let (b, _) = batch(); // contains a row with a = 0
        for e in [
            lit(6i64).div(col("a")).eq(lit(Value::Null)),
            lit(Value::Null).eq(lit(6i64).div(col("a"))),
            lit(Value::Null).add(lit(6i64).div(col("a"))),
            lit(6i64).div(col("a")).add(lit(Value::Null)).gt(lit(0.0)),
        ] {
            let c = compile(&e, &s).unwrap();
            assert_eq!(
                c.eval_mask(&b).unwrap_err(),
                ExprError::DivisionByZero,
                "{e}"
            );
        }
        // eval_f64 and eval_column surface the guard errors too.
        let e = lit(Value::Null).add(lit(6i64).div(col("a")));
        let c = compile(&e, &s).unwrap();
        assert_eq!(c.eval_f64(&b).unwrap_err(), ExprError::DivisionByZero);
        assert_eq!(c.eval_column(&b).unwrap_err(), ExprError::DivisionByZero);
        // Short-circuiting still masks a guarded null on the right.
        let e = lit(false).and(lit(6i64).div(col("a")).eq(lit(Value::Null)));
        let mask = compile(&e, &s).unwrap().eval_mask(&b).unwrap();
        assert!(mask.iter().all(|&m| !m));
        // An error-free discarded operand still folds to the plain null.
        let c = compile(&col("a").eq(lit(Value::Null)), &s).unwrap();
        assert!(matches!(c.kernel, Kernel::Bool(BoolK::ConstNull)));
        // Guards keep their column references visible to columns_used.
        let c = compile(&lit(6i64).div(col("a")).eq(lit(Value::Null)), &s).unwrap();
        assert_eq!(c.columns_used(), vec![0]);
    }

    #[test]
    fn constant_folding() {
        let s = schema();
        // Literal-only subtree folds to a constant kernel.
        let c = compile(&lit(2i64).add(lit(3i64)).mul(lit(4i64)), &s).unwrap();
        assert!(matches!(c.kernel, Kernel::Num(NumK::Int(IntK::Const(20)))));
        let c = compile(&lit(1.0).sub(lit(0.25)), &s).unwrap();
        assert!(matches!(
            c.kernel,
            Kernel::Num(NumK::Float(FloatK::Const(v))) if v == 0.75
        ));
        let c = compile(&lit(2i64).lt(lit(3i64)), &s).unwrap();
        assert!(matches!(c.kernel, Kernel::Bool(BoolK::Const(true))));
        // TRUE AND x folds to x.
        let c = compile(&lit(true).and(col("flag")), &s).unwrap();
        assert!(matches!(c.kernel, Kernel::Bool(BoolK::Col(3))));
        // Int ÷ 0 must NOT fold (it is a runtime error, possibly masked).
        let c = compile(&lit(1i64).div(lit(0i64)), &s).unwrap();
        assert!(matches!(
            c.kernel,
            Kernel::Num(NumK::Float(FloatK::DivInt(_, _)))
        ));
    }

    #[test]
    fn columns_used_and_remap() {
        let s = schema();
        let mut c = compile(&col("b").mul(col("a").add(col("b"))), &s).unwrap();
        assert_eq!(c.columns_used(), vec![0, 1]);
        c.remap_columns(&|i| i + 10);
        assert_eq!(c.columns_used(), vec![10, 11]);
    }

    #[test]
    fn type_and_binding_errors_surface_at_compile() {
        let s = schema();
        assert!(compile(&col("s").add(lit(1i64)), &s).is_err());
        assert!(compile(&col("missing"), &s).is_err());
        assert!(compile(&col("a").and(col("flag")), &s).is_err());
        // Non-boolean predicate: compile succeeds, eval_mask errors.
        let (b, _) = batch();
        let err = compile(&col("a"), &s).unwrap().eval_mask(&b).unwrap_err();
        assert!(err.to_string().contains("non-boolean"), "{err}");
    }

    #[test]
    fn data_types_mirror_the_binder() {
        let s = schema();
        for (e, want) in [
            (col("a").add(lit(1i64)), Some(DataType::Int)),
            (col("a").div(lit(2i64)), Some(DataType::Float)),
            (col("a").gt(lit(0i64)), Some(DataType::Bool)),
            (col("s"), Some(DataType::Str)),
            (lit(Value::Null), None),
        ] {
            assert_eq!(compile(&e, &s).unwrap().data_type(), want, "{e}");
            assert_eq!(
                crate::eval::data_type(&bind(&e, &s).unwrap(), &s).unwrap(),
                want
            );
        }
    }

    #[test]
    fn string_const_fast_path_handles_nulls() {
        let s = schema();
        let (b, rows) = batch();
        let e = col("s").gt_eq(lit("hi"));
        let bound = bind(&e, &s).unwrap();
        let out = compile(&e, &s).unwrap().eval_column(&b).unwrap();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(out.value(i), eval(&bound, row).unwrap(), "row {i}");
        }
    }
}
