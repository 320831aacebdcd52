//! Error types for the RDF substrate.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RdfError>;

/// Errors raised while parsing or building RDF data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A syntax error encountered while parsing a serialisation format.
    Parse {
        /// 1-based line number where the error was detected.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An IRI did not have the expected shape (e.g. empty, unbalanced angle
    /// brackets).
    InvalidIri(String),
    /// A prefixed name used an undeclared prefix.
    UnknownPrefix(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RdfError::InvalidIri(iri) => write!(f, "invalid IRI: {iri}"),
            RdfError::UnknownPrefix(p) => write!(f, "unknown prefix: {p}"),
        }
    }
}

impl std::error::Error for RdfError {}

impl RdfError {
    /// Helper for constructing a [`RdfError::Parse`] error.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        RdfError::Parse {
            line,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error() {
        let e = RdfError::parse(3, "unexpected end of line");
        assert_eq!(
            e.to_string(),
            "parse error at line 3: unexpected end of line"
        );
    }

    #[test]
    fn display_other_variants() {
        assert!(RdfError::InvalidIri("x".into())
            .to_string()
            .contains("invalid IRI"));
        assert!(RdfError::UnknownPrefix("ex".into())
            .to_string()
            .contains("unknown prefix"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&RdfError::InvalidIri("x".into()));
    }
}
