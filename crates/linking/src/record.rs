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

use classilink_rdf::{Graph, Term};
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

    /// Number of attribute values.
    pub fn value_count(&self) -> usize {
        self.attributes.values().map(Vec::len).sum()
    }

    /// Build the record of `item` from the literal triples of `graph`.
    pub fn from_graph(graph: &Graph, item: &Term) -> Self {
        let mut record = Record::new(item.clone());
        for triple in graph.triples_matching(Some(item), None, None) {
            if let (Some(p), Some(lit)) = (triple.predicate.as_iri(), triple.object.as_literal()) {
                record.add(p, lit.value.clone());
            }
        }
        record
    }

    /// Build records for every subject of `graph`.
    pub fn all_from_graph(graph: &Graph) -> Vec<Record> {
        graph
            .subjects()
            .iter()
            .map(|s| Record::from_graph(graph, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classilink_rdf::Triple;

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        g.insert(Triple::literal(
            "http://e.org/p1",
            "http://e.org/v#pn",
            "CRCW0805-10K",
        ));
        g.insert(Triple::literal(
            "http://e.org/p1",
            "http://e.org/v#mfr",
            "Vishay",
        ));
        g.insert(Triple::literal(
            "http://e.org/p1",
            "http://e.org/v#mfr",
            "Vishay Intertech",
        ));
        g.insert(Triple::iris(
            "http://e.org/p1",
            "http://e.org/v#cls",
            "http://e.org/c#R",
        ));
        g.insert(Triple::literal(
            "http://e.org/p2",
            "http://e.org/v#pn",
            "T83A225",
        ));
        g
    }

    #[test]
    fn from_graph_collects_literals_only() {
        let g = sample_graph();
        let r = Record::from_graph(&g, &Term::iri("http://e.org/p1"));
        assert_eq!(r.value_count(), 3);
        assert_eq!(r.first("http://e.org/v#pn"), Some("CRCW0805-10K"));
        assert_eq!(r.values("http://e.org/v#mfr").len(), 2);
        assert!(r.values("http://e.org/v#cls").is_empty());
        assert!(r.first("http://e.org/v#unknown").is_none());
    }

    #[test]
    fn all_from_graph_builds_one_record_per_subject() {
        let g = sample_graph();
        let records = Record::all_from_graph(&g);
        assert_eq!(records.len(), 2);
    }

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
        assert_eq!(r.value_count(), 2);
    }
}
