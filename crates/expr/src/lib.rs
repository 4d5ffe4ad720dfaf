//! # sa-expr — scalar expressions
//!
//! The expression language of the engine: a small AST ([`Expr`]) with a
//! fluent builder ([`col`], [`lit`]), a name-resolving, type-checking binder
//! ([`bind`]), vectorized kernels compiled once per query ([`compile()`]) and
//! the row-at-a-time reference interpreter they are tested against
//! ([`eval()`]), all with SQL three-valued logic.
//!
//! Everything the paper's queries need is covered: arithmetic for aggregate
//! expressions like `l_discount * (1.0 - l_tax)`, comparisons for selection
//! predicates like `l_extendedprice > 100.0`, and equality for join
//! conditions like `l_orderkey = o_orderkey`.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod eval;

pub use ast::{col, lit, BinOp, Expr, UnOp};
pub use compile::{compile, CompiledExpr};
pub use error::ExprError;
pub use eval::{bind, data_type, eval, eval_f64, eval_predicate};

/// Crate-wide result alias.
pub type Result<T, E = ExprError> = std::result::Result<T, E>;
