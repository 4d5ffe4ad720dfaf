//! Error type for the GUS algebra and estimator.

use std::fmt;

/// Errors from constructing or combining GUS parameters and from estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// More base relations than the dense `b̄` representation supports.
    TooManyRelations {
        /// Requested relation count.
        n: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Two relations with the same name in one lineage schema.
    DuplicateRelation {
        /// The repeated name.
        name: String,
    },
    /// A relation name not present in the lineage schema.
    UnknownRelation {
        /// The missing name.
        name: String,
    },
    /// Join/composition of GUS methods whose lineage schemas overlap
    /// (Proposition 6 requires `L(R₁) ∩ L(R₂) = ∅`; self-joins are out of
    /// scope, as the paper discusses in Section 9).
    LineageOverlap {
        /// A relation present on both sides.
        name: String,
    },
    /// An operation that requires both operands over the same lineage schema
    /// (compaction, union) was given different schemas.
    SchemaMismatch {
        /// Rendering of the left schema.
        left: String,
        /// Rendering of the right schema.
        right: String,
    },
    /// A probability or coefficient outside its legal range, or a `b̄` table
    /// of the wrong length.
    InvalidParam(String),
    /// Mismatched lineage arity or aggregate dimension fed to the estimator.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was received.
        got: usize,
    },
    /// An estimate was requested from a configuration that cannot produce one
    /// (e.g. `a = 0`).
    Degenerate(String),
    /// Two moment accumulators with different distinct families merged: a
    /// relation subset one of them keeps no lineage table for (its tuples
    /// are distinct there) leaves the other's groups of that subset nothing
    /// to link to.
    LineageModeMismatch,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooManyRelations { n, max } => {
                write!(f, "{n} base relations exceed the supported maximum {max}")
            }
            CoreError::DuplicateRelation { name } => {
                write!(f, "duplicate relation `{name}` in lineage schema")
            }
            CoreError::UnknownRelation { name } => {
                write!(f, "relation `{name}` not in lineage schema")
            }
            CoreError::LineageOverlap { name } => write!(
                f,
                "lineage schemas overlap on `{name}` (Proposition 6 requires disjoint lineage; self-joins are unsupported)"
            ),
            CoreError::SchemaMismatch { left, right } => {
                write!(f, "lineage schema mismatch: {left} vs {right}")
            }
            CoreError::InvalidParam(msg) => write!(f, "invalid GUS parameter: {msg}"),
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CoreError::Degenerate(msg) => write!(f, "degenerate estimation problem: {msg}"),
            CoreError::LineageModeMismatch => write!(
                f,
                "cannot merge moment accumulators whose distinct relation-subset families differ"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_facts() {
        let e = CoreError::TooManyRelations { n: 20, max: 16 };
        assert!(e.to_string().contains("20"));
        let e = CoreError::LineageOverlap { name: "l".into() };
        assert!(e.to_string().contains("self-joins"));
        let e = CoreError::DimensionMismatch {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2"));
    }
}
