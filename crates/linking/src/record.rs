//! Flat record view of RDF data items.
//!
//! The linking method and the blocking baselines operate on attribute/value
//! records rather than triples. A [`Record`] is the flattened description of
//! one data item: its identifier plus a multimap of literal-valued
//! properties.
//!
//! `Record` is the **builder-side** representation: convenient to
//! construct and inspect one item at a time. The blockers and the
//! comparison engine run on the interned, columnar
//! [`RecordStore`](crate::store::RecordStore); convert a batch with
//! [`RecordStore::from_records`](crate::store::RecordStore::from_records)
//! and see [`crate::store`] for the layout.

use classilink_rdf::Term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A flat record: an item identifier and its literal attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// The item this record describes.
    pub id: Term,
    /// Attribute values, keyed by property IRI; one property may have several
    /// values.
    pub attributes: BTreeMap<String, Vec<String>>,
}

impl Record {
    /// An empty record for `id`.
    pub fn new(id: Term) -> Self {
        Record {
            id,
            attributes: BTreeMap::new(),
        }
    }

    /// Add one attribute value.
    pub fn add(&mut self, property: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.attributes
            .entry(property.into())
            .or_default()
            .push(value.into());
        self
    }

    /// The first value of `property`, if any.
    pub fn first(&self, property: &str) -> Option<&str> {
        self.attributes
            .get(property)
            .and_then(|vs| vs.first())
            .map(String::as_str)
    }

    /// All values of `property`.
    pub fn values(&self, property: &str) -> &[String] {
        self.attributes
            .get(property)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every value of every attribute concatenated (used by whole-record
    /// similarity and by blocking keys that span attributes).
    pub fn full_text(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for values in self.attributes.values() {
            for v in values {
                parts.push(v);
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_text_concatenates_values() {
        let mut r = Record::new(Term::iri("http://e.org/x"));
        r.add("http://e.org/v#a", "one")
            .add("http://e.org/v#b", "two");
        let text = r.full_text();
        assert!(text.contains("one") && text.contains("two"));
        assert_eq!(Record::new(Term::iri("http://e.org/y")).full_text(), "");
    }

    #[test]
    fn builder_style_adds() {
        let mut r = Record::new(Term::iri("http://e.org/x"));
        r.add("p", "v1").add("p", "v2");
        assert_eq!(r.values("p"), &["v1".to_string(), "v2".to_string()]);
    }
}
