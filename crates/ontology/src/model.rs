//! Core ontology entities: classes and their ids.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A compact identifier for a class within one [`crate::Ontology`].
///
/// Ids are dense (assignable as vector indexes) and stable for the lifetime
/// of the ontology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClassId(pub u32);

impl ClassId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An ontology class (`owl:Class`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OntClass {
    /// The class id within its ontology.
    pub id: ClassId,
    /// The full IRI of the class.
    pub iri: String,
    /// A human-readable label (`rdfs:label`), falling back to the IRI local
    /// name when absent.
    pub label: String,
    /// Direct superclasses (not the transitive closure).
    pub parents: Vec<ClassId>,
}

impl OntClass {
    /// `true` when the class has no declared superclass (a hierarchy root).
    pub fn is_root(&self) -> bool {
        self.parents.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_and_index() {
        assert_eq!(ClassId(4).to_string(), "c4");
        assert_eq!(ClassId(4).index(), 4);
    }

    #[test]
    fn root_detection() {
        let root = OntClass {
            id: ClassId(0),
            iri: "http://e.org/c#Component".into(),
            label: "Component".into(),
            parents: vec![],
        };
        let child = OntClass {
            id: ClassId(1),
            iri: "http://e.org/c#Resistor".into(),
            label: "Resistor".into(),
            parents: vec![ClassId(0)],
        };
        assert!(root.is_root());
        assert!(!child.is_root());
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ClassId(1) < ClassId(2));
    }
}
