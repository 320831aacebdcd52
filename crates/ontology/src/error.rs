//! Error types for the ontology substrate.

use std::fmt;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OntologyError>;

/// Errors raised while building or querying an ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// A class id was out of range for this ontology.
    UnknownClassId(u32),
    /// Declaring a subclass edge would introduce a cycle in the hierarchy.
    SubsumptionCycle {
        /// The subclass side of the offending edge.
        sub: String,
        /// The superclass side of the offending edge.
        sup: String,
    },
    /// A class was declared disjoint with itself.
    ConflictingDeclaration(String),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::UnknownClassId(id) => write!(f, "unknown class id: {id}"),
            OntologyError::SubsumptionCycle { sub, sup } => {
                write!(f, "adding {sub} rdfs:subClassOf {sup} would create a cycle")
            }
            OntologyError::ConflictingDeclaration(iri) => {
                write!(f, "conflicting declaration for {iri}")
            }
        }
    }
}

impl std::error::Error for OntologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(OntologyError::UnknownClassId(3).to_string().contains('3'));
        let cycle = OntologyError::SubsumptionCycle {
            sub: "A".into(),
            sup: "B".into(),
        };
        assert!(cycle.to_string().contains("cycle"));
        assert!(OntologyError::ConflictingDeclaration("x".into())
            .to_string()
            .contains("conflicting"));
    }
}
