//! Error type for sampling operators.

use std::fmt;

/// Errors from configuring a sampling method or deriving its GUS parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingError {
    /// A probability outside `[0, 1]` or a sample size larger than the
    /// population.
    InvalidSpec(String),
    /// Propagated GUS parameter error.
    Core(sa_core::CoreError),
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::InvalidSpec(msg) => write!(f, "invalid sampling spec: {msg}"),
            SamplingError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SamplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SamplingError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sa_core::CoreError> for SamplingError {
    fn from(e: sa_core::CoreError) -> Self {
        SamplingError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = SamplingError::InvalidSpec("WOR size 11 exceeds population 10".into());
        assert!(e.to_string().contains("invalid sampling spec"));
        assert!(e.to_string().contains("WOR size 11"));
    }
}
