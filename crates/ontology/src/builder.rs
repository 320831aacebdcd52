//! Ergonomic ontology construction.

use crate::model::ClassId;
use crate::ontology::Ontology;

/// A convenience builder that names classes relative to a base namespace and
/// wires subclass edges as classes are declared.
///
/// ```
/// use classilink_ontology::builder::OntologyBuilder;
/// let mut b = OntologyBuilder::new("http://example.org/classes#");
/// let root = b.class("Component", None);
/// let resistor = b.class("Resistor", Some(root));
/// let onto = b.build();
/// assert!(onto.is_subclass_of(resistor, root));
/// ```
#[derive(Debug, Clone)]
pub struct OntologyBuilder {
    namespace: String,
    ontology: Ontology,
}

impl OntologyBuilder {
    /// Start building with the namespace used to mint class IRIs.
    pub fn new(namespace: impl Into<String>) -> Self {
        OntologyBuilder {
            namespace: namespace.into(),
            ontology: Ontology::new(),
        }
    }

    fn mint(&self, local: &str) -> String {
        // Local names with spaces are CamelCased to stay IRI-safe.
        let cleaned: String = local
            .split_whitespace()
            .map(|w| {
                let mut chars = w.chars();
                match chars.next() {
                    Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
                    None => String::new(),
                }
            })
            .collect();
        format!("{}{}", self.namespace, cleaned)
    }

    /// Declare a class named `label` (IRI minted from the namespace), with an
    /// optional parent.
    pub fn class(&mut self, label: &str, parent: Option<ClassId>) -> ClassId {
        let iri = self.mint(label);
        let id = self.ontology.add_class(iri, label);
        if let Some(p) = parent {
            self.ontology
                .add_subclass_axiom(id, p)
                .expect("builder-created edges are acyclic");
        }
        id
    }

    /// Finish building.
    pub fn build(self) -> Ontology {
        self.ontology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_hierarchy_with_minted_iris() {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Electronic component", None);
        let resistor = b.class("Fixed film resistance", Some(root));
        let onto = b.build();
        assert_eq!(onto.iri(root), "http://e.org/c#ElectronicComponent");
        assert_eq!(onto.iri(resistor), "http://e.org/c#FixedFilmResistance");
        assert_eq!(onto.label(resistor), "Fixed film resistance");
        assert!(onto.is_subclass_of(resistor, root));
    }

    #[test]
    fn a_class_without_parent_is_a_root() {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let special = b.class("SpecialPart", None);
        let onto = b.build();
        assert_eq!(onto.roots(), vec![root, special]);
        assert!(!onto.is_subclass_of(special, root));
    }
}
