//! Ergonomic ontology construction.

use crate::model::{ClassId, DataKind, PropertyId};
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
    /// Start building with the namespace used to mint class/property IRIs.
    pub fn new(namespace: impl Into<String>) -> Self {
        OntologyBuilder {
            namespace: namespace.into(),
            ontology: Ontology::new(),
        }
    }

    /// The namespace used to mint IRIs.
    pub fn namespace(&self) -> &str {
        &self.namespace
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

    /// Add an extra `sub ⊑ sup` edge (for multiple inheritance).
    pub fn subclass(&mut self, sub: ClassId, sup: ClassId) -> &mut Self {
        self.ontology
            .add_subclass_axiom(sub, sup)
            .expect("builder subclass edge must not create a cycle");
        self
    }

    /// Declare a disjointness axiom between two classes.
    pub fn disjoint(&mut self, a: ClassId, b: ClassId) -> &mut Self {
        self.ontology
            .add_disjoint_axiom(a, b)
            .expect("builder disjointness axiom on distinct classes");
        self
    }

    /// Declare a text data property named `label`.
    pub fn data_property(&mut self, label: &str, domain: Option<ClassId>) -> PropertyId {
        let iri = self.mint_property(label);
        self.ontology
            .add_data_property(iri, label, domain, DataKind::Text)
    }

    /// Declare an object property named `label`.
    pub fn object_property(
        &mut self,
        label: &str,
        domain: Option<ClassId>,
        range: Option<ClassId>,
    ) -> PropertyId {
        let iri = self.mint_property(label);
        self.ontology.add_object_property(iri, label, domain, range)
    }

    fn mint_property(&self, local: &str) -> String {
        // camelCase for properties: first word lowercase, the rest capitalised.
        let mut words = local.split_whitespace();
        let mut out = String::new();
        if let Some(first) = words.next() {
            out.push_str(&first.to_lowercase());
        }
        for w in words {
            let mut chars = w.chars();
            if let Some(first) = chars.next() {
                out.push_str(&first.to_uppercase().collect::<String>());
                out.push_str(chars.as_str());
            }
        }
        format!("{}{}", self.namespace, out)
    }

    /// Read-only access to the ontology under construction.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
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
    fn property_iris_are_camel_cased() {
        let mut b = OntologyBuilder::new("http://e.org/v#");
        let root = b.class("Component", None);
        b.data_property("part number", Some(root));
        b.object_property("has manufacturer", Some(root), None);
        let onto = b.build();
        assert!(onto.data_property("http://e.org/v#partNumber").is_some());
        assert!(onto
            .object_property("http://e.org/v#hasManufacturer")
            .is_some());
    }

    #[test]
    fn disjoint_and_extra_subclass_edges() {
        let mut b = OntologyBuilder::new("http://e.org/c#");
        let root = b.class("Component", None);
        let r = b.class("Resistor", Some(root));
        let c = b.class("Capacitor", Some(root));
        let special = b.class("SpecialPart", None);
        b.disjoint(r, c);
        b.subclass(special, root);
        let onto = b.build();
        assert!(onto.are_disjoint(r, c));
        assert!(onto.is_subclass_of(special, root));
    }

    #[test]
    fn namespace_accessors() {
        let b = OntologyBuilder::new("http://e.org/c#");
        assert_eq!(b.namespace(), "http://e.org/c#");
        assert!(b.ontology().is_empty());
    }
}
