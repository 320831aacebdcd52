//! Namespace / prefix management and well-known vocabularies.

use std::collections::BTreeMap;

/// Well-known term IRIs used across the workspace.
pub mod vocab {
    /// `rdf:type`.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `xsd:integer`.
    pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:decimal`.
    pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
}

/// A prefix → namespace-IRI table: the Turtle reader's `@prefix`
/// declarations.
///
/// ```
/// use classilink_rdf::Namespaces;
/// let mut ns = Namespaces::new();
/// ns.declare("ex", "http://example.org/vocab#");
/// assert_eq!(ns.get("ex"), Some("http://example.org/vocab#"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Namespaces {
    prefixes: BTreeMap<String, String>,
}

impl Namespaces {
    /// An empty prefix table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare (or overwrite) a prefix.
    pub fn declare(&mut self, prefix: impl Into<String>, iri: impl Into<String>) {
        self.prefixes.insert(prefix.into(), iri.into());
    }

    /// Look up the namespace IRI bound to `prefix`.
    pub fn get(&self, prefix: &str) -> Option<&str> {
        self.prefixes.get(prefix).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_overwrites() {
        let mut ns = Namespaces::new();
        ns.declare("ex", "http://one.org/");
        ns.declare("ex", "http://two.org/");
        assert_eq!(ns.get("ex"), Some("http://two.org/"));
        assert_eq!(ns.get("ox"), None);
    }
}
