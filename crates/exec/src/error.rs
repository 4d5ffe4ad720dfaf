//! Error type for plan execution.

use std::fmt;

/// Errors from executing plans.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Propagated plan error (validation, rewriting).
    Plan(sa_plan::PlanError),
    /// Propagated storage error.
    Storage(sa_storage::StorageError),
    /// Propagated expression error.
    Expr(sa_expr::ExprError),
    /// Propagated sampling error.
    Sampling(sa_sampling::SamplingError),
    /// Propagated estimator error.
    Core(sa_core::CoreError),
    /// A plan shape the executor cannot run (should be caught by
    /// validation; kept as defense in depth).
    Unsupported(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "{e}"),
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::Expr(e) => write!(f, "{e}"),
            ExecError::Sampling(e) => write!(f, "{e}"),
            ExecError::Core(e) => write!(f, "{e}"),
            ExecError::Unsupported(msg) => write!(f, "unsupported plan: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Plan(e) => Some(e),
            ExecError::Storage(e) => Some(e),
            ExecError::Expr(e) => Some(e),
            ExecError::Sampling(e) => Some(e),
            ExecError::Core(e) => Some(e),
            ExecError::Unsupported(_) => None,
        }
    }
}

impl From<sa_plan::PlanError> for ExecError {
    fn from(e: sa_plan::PlanError) -> Self {
        ExecError::Plan(e)
    }
}
impl From<sa_storage::StorageError> for ExecError {
    fn from(e: sa_storage::StorageError) -> Self {
        ExecError::Storage(e)
    }
}
impl From<sa_expr::ExprError> for ExecError {
    fn from(e: sa_expr::ExprError) -> Self {
        ExecError::Expr(e)
    }
}
impl From<sa_sampling::SamplingError> for ExecError {
    fn from(e: sa_sampling::SamplingError) -> Self {
        ExecError::Sampling(e)
    }
}
impl From<sa_core::CoreError> for ExecError {
    fn from(e: sa_core::CoreError) -> Self {
        ExecError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_chain() {
        let e: ExecError = sa_storage::StorageError::UnknownTable { name: "t".into() }.into();
        assert!(e.to_string().contains('t'));
        assert!(std::error::Error::source(&e).is_some());
    }
}
